(* The system under test: a real [chimera serve] process on an ephemeral
   port, and [chimera recover] over the journal it leaves.  Every process
   started here is waited for; [kill] is the guard for failure paths. *)

type t = {
  pid : int;
  port : int;
  out : Unix.file_descr;  (** the server's stdout *)
  spawned_ns : int;
  mutable alive : bool;
}

let now_ns = Core.Monotime.now_ns

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Reads whatever the fd has until [deadline_ns] or EOF; [stop] decides on
   the accumulated text whether to keep waiting. *)
let read_until fd ~deadline_ns ~stop =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    if stop (Buffer.contents buf) then `Done (Buffer.contents buf)
    else
      let left = float_of_int (deadline_ns - now_ns ()) /. 1e9 in
      if left <= 0. then `Timeout (Buffer.contents buf)
      else
        match Unix.select [ fd ] [] [] left with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | [], _, _ -> `Timeout (Buffer.contents buf)
        | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> `Eof (Buffer.contents buf)
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                go ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let listening_port text =
  match String.index_opt text '\n' with
  | None -> None
  | Some eol -> (
      let line = String.sub text 0 eol in
      match Text.find line "listening on " with
      | None -> None
      | Some i -> (
          let addr =
            List.hd
              (String.split_on_char ' '
                 (String.sub line (i + 13) (String.length line - i - 13)))
          in
          match String.rindex_opt addr ':' with
          | None -> None
          | Some c ->
              int_of_string_opt
                (String.sub addr (c + 1) (String.length addr - c - 1))))

let kill t =
  if t.alive then begin
    t.alive <- false;
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
    try Unix.close t.out with Unix.Unix_error _ -> ()
  end

(* Starts [chimera serve --port 0 ARGS] and waits for its "listening on"
   line, which carries the ephemeral port. *)
let spawn ~chimera ~args ~env =
  let r, w = Unix.pipe ~cloexec:true () in
  let spawned_ns = now_ns () in
  let pid =
    Unix.create_process_env chimera
      (Array.of_list ((chimera :: "serve" :: "--port" :: "0" :: args)))
      (Array.append (Unix.environment ()) env)
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let t = { pid; port = 0; out = r; spawned_ns; alive = true } in
  match
    read_until r
      ~deadline_ns:(now_ns () + 30_000_000_000)
      ~stop:(fun text -> String.contains text '\n')
  with
  | `Done text -> (
      match listening_port text with
      | Some port -> Ok { t with port }
      | None ->
          kill t;
          Error ("unexpected server banner: " ^ String.trim text))
  | `Eof text | `Timeout text ->
      kill t;
      Error ("server did not start: " ^ String.trim text)

(* Peak resident set of the running server, in KiB. *)
let hwm_kb t =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" t.pid) In_channel.input_all with
  | exception Sys_error _ -> 0
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> Option.value ~default:acc (int_of_string_opt kb)
              | [] -> acc)
          | _ -> acc)
        0
        (String.split_on_char '\n' status)

(* Reaps [pid], killing it if it is still running at the deadline. *)
let rec wait_exit pid ~deadline_ns =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when now_ns () < deadline_ns ->
      Unix.sleepf 0.01;
      wait_exit pid ~deadline_ns
  | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      snd (Unix.waitpid [] pid)
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid ~deadline_ns
  | exception Unix.Unix_error _ -> Unix.WEXITED 255

(* Graceful drain: SIGTERM, the rest of stdout, exit status 0 required. *)
let stop t =
  if not t.alive then Error "server already stopped"
  else begin
    Unix.kill t.pid Sys.sigterm;
    let rest =
      match read_until t.out ~deadline_ns:(now_ns () + 30_000_000_000) ~stop:(fun _ -> false) with
      | `Eof text | `Done text | `Timeout text -> text
    in
    let status = wait_exit t.pid ~deadline_ns:(now_ns () + 30_000_000_000) in
    t.alive <- false;
    (try Unix.close t.out with Unix.Unix_error _ -> ());
    match status with
    | Unix.WEXITED 0 -> Ok rest
    | Unix.WEXITED n -> Error (Printf.sprintf "server exited %d" n)
    | Unix.WSIGNALED n | Unix.WSTOPPED n ->
        Error (Printf.sprintf "server killed by signal %d" n)
  end

(* [chimera recover JOURNAL SCRIPT]: wall seconds and the last commit
   sequence it reports. *)
let recover ~chimera ~journal ~script =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now_ns () in
  let pid =
    Unix.create_process chimera
      [| chimera; "recover"; journal; script |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let text =
    match read_until r ~deadline_ns:(now_ns () + 60_000_000_000) ~stop:(fun _ -> false) with
    | `Eof text | `Done text | `Timeout text -> text
  in
  let status = wait_exit pid ~deadline_ns:(now_ns () + 60_000_000_000) in
  let elapsed = float_of_int (now_ns () - t0) /. 1e9 in
  Unix.close r;
  match status with
  | Unix.WEXITED 0 -> (
      match Text.int_after text "last commit seq " with
      | Some seq -> Ok (elapsed, seq)
      | None -> Error ("unexpected recover output: " ^ text))
  | _ -> Error ("chimera recover failed: " ^ String.trim text)
