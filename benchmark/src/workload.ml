(* The benchmark's workloads: each a traffic mix, a boot script and a
   seeded stream of transactions.  The server only ever sees the frames
   generated here; the engine-only replay consumes the same operations.

   Each workload loads a different set of layers (see [why]).  The frozen
   numbers stay fixed across commits, so that every commit is measured on
   identical work: [base_capacity_eps], the capacity measured when the
   benchmark was introduced, sizes the capacity repetitions and the
   warm-up; [rate_eps] is the fixed rate, at most about a third of base
   capacity, so that a machine slowed by its neighbours still keeps up with
   it and the latencies measure the server rather than a growing queue. *)

open Core

type op =
  | Records of { etypes : int array; oids : int array }
      (** one binary EVENT (one record) or BATCH frame: record [i] is an
          event of etype id [etypes.(i)] on object [oids.(i)] *)
  | Line of string  (** one text LINE *)
  | Commit
  | Abort

(* The ops of one transaction end with [Commit] or [Abort]. *)
type txn = { conn : int; ops : op array }

type t = {
  name : string;
  why : string;
  boot : string;  (** boot script run on the server; "" for none *)
  etypes : string array;  (** ETYPE table of the binary connections, id = index *)
  subs : (string * bool) array;
      (** SUB spec and BIN flag, id = index, all on the subscriber
          connection (the one after the ingesting ones) *)
  ingest_conns : int;
  journal : bool;  (** serve with a per-commit fsynced, checkpointed journal *)
  preload : op array;  (** setup transactions on connection 0 *)
  base_capacity_eps : float;
  rate_eps : float;
  gen : Prng.t -> first_event:int -> op array;
}

(* Frames in flight per connection in a closed loop: the pipelining depth
   the server offers (its default [--max-pending]). *)
let window = 64

let conns w = w.ingest_conns + if Array.length w.subs > 0 then 1 else 0

let op_events = function
  | Records r -> Array.length r.oids
  | Line _ -> 1
  | Commit | Abort -> 0

let txn_events t = Array.fold_left (fun acc op -> acc + op_events op) 0 t.ops

(* [n] events split into BATCH frames of [batch] records each;
   [record ()] draws the next (etype id, oid). *)
let batches ~batch n record =
  let rec go start acc =
    if start >= n then List.rev acc
    else
      let k = min batch (n - start) in
      let drawn = Array.init k (fun _ -> record ()) in
      go (start + k) (Records { etypes = Array.map fst drawn; oids = Array.map snd drawn } :: acc)
  in
  go 0 []

(* ------------------------------------------------------------ ingest-bin *)

let ingest_bin =
  {
    name = "ingest-bin";
    why =
      "binary BATCH ingest on 2 connections, no rule matches: the time is in \
       protocol, server and session, so server-pipeline changes show here";
    boot = "define class sensor (n: integer);\n";
    etypes = [| "tick" |];
    subs = [||];
    ingest_conns = 2;
    journal = false;
    preload = [||];
    base_capacity_eps = 590_000.;
    rate_eps = 140_000.;
    gen =
      (fun rng ~first_event:_ ->
        Array.of_list
          (batches ~batch:16 100 (fun () -> (0, Prng.next_int rng ~bound:1024))
          @ [ Commit ]));
  }

(* ----------------------------------------------------------- txn-durable *)

(* [stamp] is instance-oriented and immediate: it runs on every created
   item.  [sweep] is deferred and consuming: it deletes the transaction's
   items at commit, so the store holds the preloaded stock objects and
   nothing else however long the run. *)
let txn_boot =
  {|define class item (n: integer);
define class stock (n: integer);

define immediate trigger stamp for item
  events { create(item) += -=delete(item) }
  condition item(I), occurred({ create(item) += -=delete(item) }, I), I.n > 0
  actions modify(I.n, 0)
  consuming
end;

define deferred trigger sweep for item
  events { create(item) }
  condition occurred({ create(item) }, I)
  actions delete I
  consuming
end;
|}

(* One committed transaction per line: in one transaction, every line
   would re-check [stamp] over all the stock created so far. *)
let preload_stock ~objects ~per_line =
  Array.concat
    (List.init (objects / per_line) (fun l ->
         [|
           Line
             ("begin "
             ^ String.concat " "
                 (List.init per_line (fun i ->
                      Printf.sprintf "create stock(n = %d);" ((l * per_line) + i)))
             ^ " end");
           Commit;
         |]))

let txn_durable =
  {
    name = "txn-durable";
    why =
      "text LINE transactions with triggers, 5% aborts and a per-commit fsync \
       journal: the time is in lang, store, engine and journal";
    boot = txn_boot;
    etypes = [||];
    subs = [||];
    ingest_conns = 2;
    journal = true;
    preload = preload_stock ~objects:2000 ~per_line:100;
    base_capacity_eps = 1_400.;
    rate_eps = 400.;
    gen =
      (fun rng ~first_event:_ ->
        let lines =
          Array.init 10 (fun _ ->
              Line
                (Printf.sprintf "create item(n = %d)"
                   (1 + Prng.next_int rng ~bound:1000)))
        in
        let last = if Prng.next_int rng ~bound:100 < 5 then Abort else Commit in
        Array.append lines [| last |]);
  }

(* ------------------------------------------------------- composite-rules *)

(* 32 rules: eight operator templates, each over four rotations of the
   event types.  Set and instance sequence, conjunction and negation all
   appear; instance rules bind their objects with [occurred]. *)
let composite_templates =
  [
    (false, fun x y _ -> Printf.sprintf "%s < %s" x y);
    (false, fun x y _ -> Printf.sprintf "%s + %s" x y);
    (false, fun x y _ -> Printf.sprintf "%s + -%s" x y);
    (false, fun x y z -> Printf.sprintf "(%s < %s) + -%s" x y z);
    (true, fun x y _ -> Printf.sprintf "%s <= %s" x y);
    (true, fun x y _ -> Printf.sprintf "%s += %s" x y);
    (true, fun x y _ -> Printf.sprintf "%s += -=%s" x y);
    (true, fun x y z -> Printf.sprintf "(%s <= %s) += -=%s" x y z);
  ]

let composite_types = [| "a"; "b"; "c"; "d" |]

let composite_boot =
  let rule i (instance, template) rot =
    let t k = composite_types.((rot + k) mod 4) in
    let expr = template (t 0) (t 1) (t 2) in
    Printf.sprintf
      "define immediate trigger cr%d\n  events { %s }\n%s  actions select probe\n  consuming\nend;\n"
      i expr
      (if instance then Printf.sprintf "  condition occurred({ %s }, X)\n" expr
       else "")
  in
  "define class probe (n: integer);\n\n"
  ^ String.concat "\n"
      (List.concat
         (List.mapi
            (fun ti template ->
              List.init 4 (fun rot -> rule ((ti * 4) + rot) template rot))
            composite_templates))

let composite_rules =
  {
    name = "composite-rules";
    why =
      "32 set and instance composite rules over 4 event types and 256 objects, \
       long windows: the time is in calculus, trigger wake and postings";
    boot = composite_boot;
    etypes = composite_types;
    subs = [||];
    ingest_conns = 1;
    journal = false;
    preload = [||];
    base_capacity_eps = 4_600.;
    rate_eps = 1_100.;
    gen =
      (fun rng ~first_event:_ ->
        Array.of_list
          (batches ~batch:4 200 (fun () ->
               (Prng.next_int rng ~bound:4, Prng.next_int rng ~bound:256))
          @ [ Commit ]));
  }

(* -------------------------------------------------------- subscribe-push *)

let push_types = [| "s0"; "s1"; "s2"; "s3" |]

(* 15 primitive subscriptions spread over the four types, plus one
   composite; every event's oid is its index in the stream, which the
   [at] binding carries back so a NOTIFY maps to the event's due time. *)
let push_subs =
  Array.append
    (Array.init 15 (fun i ->
         let ty = push_types.(i mod 4) in
         (Printf.sprintf "ON { %s } DO at({ %s }, X, T)" ty ty, i mod 2 = 1)))
    [| ("ON { s0 < s1 } DO at({ s1 }, X, T)", true) |]

let subscribe_push =
  {
    name = "subscribe-push";
    why =
      "1 binary ingester fanned out to 16 live subscriptions on a second \
       connection: the ingest entry point used as push delivery";
    boot = "";
    etypes = push_types;
    subs = push_subs;
    ingest_conns = 1;
    journal = false;
    preload = [||];
    base_capacity_eps = 2_500.;
    rate_eps = 400.;
    gen =
      (fun rng ~first_event ->
        Array.append
          (Array.init 10 (fun i ->
               Records
                 { etypes = [| Prng.next_int rng ~bound:4 |]; oids = [| first_event + i |] }))
          [| Commit |]);
  }

let all = [ ingest_bin; txn_durable; composite_rules; subscribe_push ]
let find name = List.find_opt (fun w -> w.name = name) all

(* ---------------------------------------------------------------- streams *)

(* The workload's seeded transaction stream: the same seed gives the same
   transactions (and so byte-identical frames), transaction [i] on
   ingesting connection [i mod ingest_conns]. *)
let stream w ~seed ~count =
  let rng = Prng.create ~seed:((seed * 1_000_003) + Hashtbl.hash w.name) in
  let next_event = ref 0 in
  Array.init count (fun i ->
      let ops = w.gen rng ~first_event:!next_event in
      (* The stream opens with a commit: an abort straight after the
         preload also drops the preloaded objects from the event base's
         object registry (their stamps are retired), and every later event
         then runs far cheaper, so a stream drawing it would measure a
         different workload. *)
      if i = 0 then ops.(Array.length ops - 1) <- Commit;
      let t = { conn = i mod w.ingest_conns; ops } in
      next_event := !next_event + txn_events t;
      t)

let max_frame = Protocol.default_max_frame

(* The wire payload of an op.  A record's timestamp field is its index in
   the frame — deterministic, since the server does not trust it. *)
let payload = function
  | Records { etypes = [| etype_id |]; oids = [| oid |] } ->
      Protocol.encode_event ~etype_id ~oid ~timestamp:0
  | Records { etypes; oids } ->
      Protocol.encode_batch
        (List.init (Array.length oids) (fun i ->
             { Protocol.etype_id = etypes.(i); oid = oids.(i); timestamp = i }))
  | Line text -> Protocol.command_to_payload (Protocol.Line text)
  | Commit -> Protocol.command_to_payload Protocol.Commit
  | Abort -> Protocol.command_to_payload Protocol.Abort

let frame op = Protocol.frame_exn ~max_frame (payload op)

(* Control frames of the set-up, per connection: greeting, etype table,
   and on the subscriber connection the subscriptions. *)
let hello_payload conn =
  Protocol.command_to_payload
    (Protocol.Hello (Printf.sprintf "%s bench-%d" Protocol.version conn))

let setup_commands w ~conn =
  if conn < w.ingest_conns then
    Array.to_list
      (Array.mapi (fun id name -> Protocol.Etype { id; name }) w.etypes)
  else
    Array.to_list
      (Array.mapi (fun id (spec, binary) -> Protocol.Sub { id; binary; spec }) w.subs)
