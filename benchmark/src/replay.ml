(* The engine-only replay: the workload's stream applied to an in-process
   [Interp]/[Engine] on one thread, mirroring what a [chimera serve] shard
   does with the same frames.  It is both the single-threaded baseline
   ([engine_eps]) and the oracle of the correctness gates: the reply each
   request must get and each subscription's committed activations. *)

open Core

type activation = { tx : int; at : int; bindings : (string * string) list list }

type t = {
  raw : Protocol.reply array array;  (** the reply per (tx, op) *)
  replies : string array array;  (** the same, normalized for comparison *)
  activations : activation list array;  (** per subscription, in commit order *)
  tx_ns : int array;  (** engine time per transaction *)
  tx_events : int array;
  live_objects : int;
}

(* Subscription rules are named [sub.<session>.<id>] by the server; the
   session number depends on accept order, so both sides compare
   [sub.<id>]. *)
let norm_rule name =
  match String.split_on_char '.' name with
  | [ "sub"; _; id ] -> "sub." ^ id
  | _ -> name

let norm_reply = function
  | Protocol.Triggered rules ->
      "TRIGGERED " ^ String.concat " " (List.map norm_rule rules)
  | Protocol.Ok_ info -> "OK " ^ info
  | Protocol.Err (code, _) -> "ERR " ^ code

(* The rule a [SUB] registers, built exactly as the server builds it. *)
let sub_spec ~id text =
  match Lang_parser.parse_subscription text with
  | Error msg -> Error msg
  | Ok (event, condition) ->
      Ok
        {
          Rule.name = Printf.sprintf "sub.0.%d" id;
          target = None;
          event;
          condition;
          action = [];
          coupling = Rule.Immediate;
          consumption = Rule.Consuming;
          priority = 0;
        }

let etype_of name =
  match Event_type.of_string name with
  | Ok e -> e
  | Error msg -> invalid_arg ("bad event type " ^ name ^ ": " ^ msg)

(* An engine prepared as the server prepares a shard: boot script run and
   committed, then the subscriptions defined and watched.  [executed]
   accumulates the rules each request executes, newest first. *)
type shard = {
  interp : Interp.t;
  engine : Engine.t;
  executed : string list ref;
  etypes : Event_type.t array;
}

let boot ?journal (w : Workload.t) =
  let interp = Interp.create () in
  let engine = Interp.engine interp in
  Option.iter (Engine.set_journal engine) journal;
  let executed = ref [] in
  Engine.set_on_execution engine (fun name -> executed := name :: !executed);
  if w.boot <> "" then begin
    (match Interp.run_string interp w.boot with
    | Ok () -> ()
    | Error msg -> failwith ("boot script: " ^ msg));
    Interp.clear_output interp;
    match Engine.commit engine with
    | Ok () -> ()
    | Error e -> failwith (Fmt.str "boot commit: %a" Engine.pp_error e)
  end;
  Array.iteri
    (fun id (text, _binary) ->
      match sub_spec ~id text with
      | Error msg -> failwith ("subscription: " ^ msg)
      | Ok spec -> (
          match Engine.define_dynamic engine spec with
          | Ok _ -> Engine.watch_rule engine spec.Rule.name
          | Error (`Rule_error msg) -> failwith ("subscription: " ^ msg)))
    w.subs;
  { interp; engine; executed; etypes = Array.map etype_of w.etypes }

let executed_reply s =
  match List.rev !(s.executed) with
  | [] -> Protocol.Ok_ ""
  | rules -> Protocol.Triggered rules

let ingest s ~etype_id ~oid =
  Engine.ingest_event s.engine ~etype:s.etypes.(etype_id) ~oid:(Ident.Oid.of_int oid)

let trim_newlines s =
  let n = ref (String.length s) in
  while !n > 0 && (s.[!n - 1] = '\n' || s.[!n - 1] = '\r') do
    decr n
  done;
  String.sub s 0 !n

let parse_line text =
  match Lang_parser.parse text with
  | Ok statements -> statements
  | Error msg -> failwith ("unparsable LINE: " ^ msg)

(* One op, applied as the server's session applies it; the reply the
   client must see. *)
let apply s (op : Workload.op) =
  s.executed := [];
  match op with
  | Records { etypes; oids } ->
      let rec go i =
        if i = Array.length oids then executed_reply s
        else
          match ingest s ~etype_id:etypes.(i) ~oid:oids.(i) with
          | Ok () -> go (i + 1)
          | Error e -> Protocol.Err ("engine", Fmt.str "%a" Engine.pp_error e)
      in
      go 0
  | Line text -> (
      Interp.clear_output s.interp;
      let rec go = function
        | [] -> (
            match executed_reply s with
            | Protocol.Ok_ _ ->
                Protocol.Ok_ (trim_newlines (Interp.output s.interp))
            | r -> r)
        | stmt :: rest -> (
            match Interp.run_statement s.interp stmt with
            | Ok () -> go rest
            | Error msg -> Protocol.Err ("engine", msg))
      in
      go (parse_line text))
  | Commit -> (
      match Interp.run_statement s.interp Lang_ast.Commit with
      | Ok () -> executed_reply s
      | Error msg ->
          Engine.abort s.engine;
          Protocol.Err ("engine", msg))
  | Abort ->
      Engine.abort s.engine;
      Protocol.Ok_ "aborted"

let sub_id_of_rule name =
  match String.split_on_char '.' name with
  | [ "sub"; _; id ] -> int_of_string_opt id
  | _ -> None

(* Applies the preload and then [stream] in order, timing each
   transaction; [on_start] runs between the two. *)
let run ?(on_start = ignore) (w : Workload.t) (stream : Workload.txn array) =
  let s = boot w in
  Array.iter (fun op -> ignore (apply s op)) w.preload;
  ignore (Engine.drain_activations s.engine);
  on_start ();
  let activations = Array.make (Array.length w.subs) [] in
  let n = Array.length stream in
  let raw_replies = Array.make n [||] in
  let replies = Array.make n [||] and tx_ns = Array.make n 0 in
  Array.iteri
    (fun tx (t : Workload.txn) ->
      let t0 = Monotime.now_ns () in
      let raw = Array.map (apply s) t.ops in
      tx_ns.(tx) <- Monotime.now_ns () - t0;
      raw_replies.(tx) <- raw;
      replies.(tx) <- Array.map norm_reply raw;
      List.iter
        (fun (a : Engine.activation) ->
          match sub_id_of_rule a.act_rule with
          | Some id ->
              activations.(id) <-
                { tx; at = Time.to_int a.act_at; bindings = a.act_bindings }
                :: activations.(id)
          | None -> ())
        (Engine.drain_activations s.engine))
    stream;
  {
    raw = raw_replies;
    replies;
    activations = Array.map List.rev activations;
    tx_ns;
    tx_events = Array.map Workload.txn_events stream;
    live_objects = Object_store.count_live (Engine.store s.engine);
  }

(* Events per second of engine time over the whole stream. *)
let eps r =
  let events = Array.fold_left ( + ) 0 r.tx_events in
  let ns = Array.fold_left ( + ) 0 r.tx_ns in
  float_of_int events /. (float_of_int (max 1 ns) /. 1e9)

(* Per-event engine cost in the last tenth of the stream over the first:
   how the cost moves as the stream and the state grow. *)
let cost_growth ~tx_ns ~tx_events =
  let n = Array.length tx_ns in
  let k = max 1 (n / 10) in
  let per_event lo hi =
    let ns = ref 0 and ev = ref 0 in
    for i = lo to hi - 1 do
      ns := !ns + tx_ns.(i);
      ev := !ev + tx_events.(i)
    done;
    float_of_int !ns /. float_of_int (max 1 !ev)
  in
  per_event (n - k) n /. per_event 0 k
