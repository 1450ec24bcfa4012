(* The correctness gates: what the server answered, checked against the
   engine-only replay of the same stream. *)

open Core

(* Every stream request's reply equals the replay's, rule for rule.  Both
   sides apply transactions in isolation (windows restart at commit), so
   the order in which two connections' transactions interleaved on the
   shard does not change any transaction's replies. *)
let replies (oracle : Replay.t) (reqs : Drive.req array) =
  Array.fold_left
    (fun acc (r : Drive.req) ->
      if r.tx < 0 then acc
      else
        let want = oracle.replies.(r.tx).(r.op) in
        match r.reply with
        | None -> Printf.sprintf "tx %d op %d: no reply" r.tx r.op :: acc
        | Some reply ->
            let got = Replay.norm_reply reply in
            if got = want then acc
            else
              Printf.sprintf "tx %d op %d: server %S, replay %S" r.tx r.op got want
              :: acc)
    [] reqs
  |> List.rev

type delivery = {
  owed : int;  (** committed activations of transactions before [upto] *)
  delivered : int;
  gapped : int;  (** notifies the server declared shed *)
  mismatches : string list;
}

(* Each subscription's NOTIFY stream, in arrival order, walked against the
   replay's activations of transactions [< upto]: a NOTIFY must equal the
   next activation, a NOTIFY_GAP of [k] skips the next [k], and nothing
   may be left over.  Hence delivered + gapped = owed, exactly. *)
let notifies (oracle : Replay.t) ~upto (pushes : Drive.push list) =
  let subs = Array.length oracle.activations in
  let owed =
    Array.map
      (fun acts -> ref (List.filter (fun (a : Replay.activation) -> a.tx < upto) acts))
      oracle.activations
  in
  let total = Array.fold_left (fun acc l -> acc + List.length !l) 0 owed in
  let delivered = ref 0 and gapped = ref 0 and mismatches = ref [] in
  let mismatch fmt = Printf.ksprintf (fun m -> mismatches := m :: !mismatches) fmt in
  let rec drop l k = if k = 0 then l else match l with [] -> [] | _ :: r -> drop r (k - 1) in
  List.iter
    (function
      | Drive.Notify (n, _) when n.Protocol.sub >= 0 && n.sub < subs -> (
          incr delivered;
          match !(owed.(n.sub)) with
          | a :: rest ->
              owed.(n.sub) := rest;
              if a.at <> n.at || a.bindings <> n.bindings then
                mismatch "sub %d: NOTIFY at %d differs from activation at %d" n.sub
                  n.at a.at
          | [] -> mismatch "sub %d: NOTIFY at %d beyond the activation log" n.sub n.at)
      | Drive.Gap (sub, k) when sub >= 0 && sub < subs ->
          gapped := !gapped + k;
          owed.(sub) := drop !(owed.(sub)) k
      | Drive.Notify (n, _) -> mismatch "NOTIFY for unknown subscription %d" n.sub
      | Drive.Gap (sub, _) -> mismatch "NOTIFY_GAP for unknown subscription %d" sub)
    pushes;
  Array.iteri
    (fun sub l ->
      if !l <> [] then mismatch "sub %d: %d activation(s) never delivered" sub (List.length !l))
    owed;
  if !delivered + !gapped <> total then
    mismatch "delivered %d + gapped %d <> owed %d" !delivered !gapped total;
  { owed = total; delivered = !delivered; gapped = !gapped; mismatches = List.rev !mismatches }
