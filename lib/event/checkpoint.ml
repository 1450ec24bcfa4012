(* Engine checkpoints: a point-in-time serialization of the committed
   state — object store dump, OID generator, logical clock, pending
   timers — that stands for every journal segment up to a commit
   sequence, so those segments can be GC'd and recovery can boot from
   the checkpoint plus the O(delta) journal suffix.

   The file reuses the journal's framing (one CRC32-checked record per
   line under a versioned header): a meta record carrying the covered
   commit sequence, then the same replayable (tag, payload) records the
   engine writes into journals — [ckpt.obj], [ckpt.oidgen], [ckpt.clock],
   [timer] — closed by an end record, so a torn file is detectable.
   Checkpoints are taken at commit boundaries, where the paper's
   semantics make every logged occurrence dead (all rule windows restart
   at the commit instant), so no event records are needed.

   Writing is atomic: tmp file, fsync, rename over the live name, parent
   dirsync — the path always names either the previous complete
   checkpoint or the new one.  Failpoint sites ("ckpt.write" torn-write
   capable, "ckpt.fsync", "ckpt.rename", "ckpt.dirsync") let the crash
   matrix stop at every boundary. *)

open Chimera_util

let header = "# chimera-checkpoint v1"
let default_every_commits = 1000
let meta_tag = "ckpt.meta"
let end_tag = "ckpt.end"

type t = {
  commit_seq : int;
      (** the journal commit sequence this checkpoint covers: recovery
          replays only transactions with a greater marker *)
  entries : Journal.entry list;
      (** replayable records, in application order *)
}

let path_for journal_path = journal_path ^ ".ckpt"

let fsync_dir path =
  let dir = Filename.dirname path in
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let write ~path t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (header ^ "\n");
  Buffer.add_string buf
    (Journal.encode_record ~tag:meta_tag (string_of_int t.commit_seq));
  List.iter
    (fun { Journal.tag; payload } ->
      Buffer.add_string buf (Journal.encode_record ~tag payload))
    t.entries;
  Buffer.add_string buf (Journal.encode_record ~tag:end_tag "");
  let content = Buffer.contents buf in
  let tmp = path ^ ".writing" in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      (match Failpoint.cut "ckpt.write" ~len:(String.length content) with
      | None -> output_string oc content
      | Some keep ->
          output_string oc (String.sub content 0 keep);
          flush oc;
          Failpoint.crash "ckpt.write");
      Failpoint.hit "ckpt.fsync";
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Failpoint.hit "ckpt.rename";
  Sys.rename tmp path;
  Failpoint.hit "ckpt.dirsync";
  fsync_dir path

(* Reads a checkpoint back, validating the header, every record frame,
   the meta record and the end record: a file that does not parse whole
   is an error, never a partial checkpoint — atomic writing means the
   live path can only hold complete files, so damage here is corruption,
   not a crash artifact. *)
let read ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | content -> (
      let lines = String.split_on_char '\n' content in
      match lines with
      | h :: rest when h = header -> (
          let rec parse acc = function
            | [] | [ "" ] -> Error (path ^ ": missing checkpoint end record")
            | line :: rest -> (
                match Journal.entry_of_line line with
                | Error e -> Error (path ^ ": " ^ e)
                | Ok entry ->
                    if entry.Journal.tag = end_tag then
                      if rest = [] || rest = [ "" ] then Ok (List.rev acc)
                      else Error (path ^ ": trailing bytes after end record")
                    else parse (entry :: acc) rest)
          in
          match parse [] rest with
          | Error _ as e -> e
          | Ok (meta :: entries) when meta.Journal.tag = meta_tag -> (
              match int_of_string_opt meta.Journal.payload with
              | Some commit_seq -> Ok { commit_seq; entries }
              | None -> Error (path ^ ": malformed checkpoint meta record"))
          | Ok _ -> Error (path ^ ": missing checkpoint meta record"))
      | _ -> Error (path ^ ": missing chimera-checkpoint header"))

let read_opt ~path =
  if Sys.file_exists path then
    match read ~path with Ok t -> Ok (Some t) | Error _ as e -> e
  else Ok None

(* The checkpoint as journal wire bytes: its records framed exactly as
   the journal would write them, closed by a commit marker at the
   covered sequence.  A replication reactor ships this as the base of a
   freshly sealed segment, so a follower's local copy replays to the
   checkpointed state before the tailed records continue from it. *)
let to_wire t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun { Journal.tag; payload } ->
      Buffer.add_string buf (Journal.encode_record ~tag payload))
    t.entries;
  Buffer.add_string buf
    (Journal.encode_record ~tag:"commit" (string_of_int t.commit_seq));
  Buffer.contents buf
