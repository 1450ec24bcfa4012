(* The Event Base: the append-only log of event occurrences of a transaction
   (Fig. 3), with the per-type index tree the implementation section
   describes (Occurred Events structure) and a per-(type, object) index for
   the instance-oriented operators.

   The per-type index is a *posting list*: a Vec of log indices per event
   type, appended on record and cut by truncate_to.  Because the log is in
   timestamp order, a posting list is too, so every type-restricted query
   (last_of_type, newest_of_type, oids_of_type, window scans) is a binary
   search over postings instead of a walk of the raw log. *)

open Chimera_util
module Obs = Chimera_obs.Obs

(* Every appended occurrence updates the trace context (spans begun after
   it carry its EID) and the raise counter — the "event raise" phase is
   observable wherever it happens: engine lines, rule actions, timers,
   recovery replay and the baseline detectors alike. *)
let c_recorded = Obs.Metrics.counter "events.recorded"

(* Posting-list traffic: appends on record, probes on type-restricted
   queries, and the number of distinct lists — the discrimination-network
   footprint visible in [chimera stats]. *)
let c_posting_appends = Obs.Metrics.counter "eventbase.posting_appends"
let c_posting_probes = Obs.Metrics.counter "eventbase.posting_probes"
let g_posting_lists = Obs.Metrics.gauge "eventbase.posting_lists"

(* Sliding-window retirement: the safe horizon the log has been retired
   behind, and how many occurrences have been released so far. *)
let g_horizon = Obs.Metrics.gauge "window.horizon"
let c_retired = Obs.Metrics.counter "window.retired"

module Type_oid_key = struct
  type t = Event_type.t * int

  let equal (ta, oa) (tb, ob) = oa = ob && Event_type.equal ta tb
  let hash (t, o) = (Event_type.hash t * 31) + o
end

module Type_oid_tbl = Hashtbl.Make (Type_oid_key)
module Int_map = Map.Make (Int)

type t = {
  clock : Time.Clock.clock;
  eids : Ident.Eid.gen;
  log : Occurrence.t Vec.t;
  by_type : int Vec.t Event_type.Tbl.t;  (** posting lists of log indices *)
  by_type_oid : Time.t Vec.t Type_oid_tbl.t;
  mutable by_oid : Time.t Vec.t Int_map.t;
      (** Per-object event instants (the "sparse data structure" of
          Section 5), in ascending oid: [oids_in] checks each object with
          a binary search instead of scanning the window.  Holds only
          objects with an instant above [horizon] — retirement and
          truncation drop an object once its instants are gone. *)
  mutable oids_synced : int;
      (** [by_oid] covers the log below this index: it is brought up to
          date when [oids_in] asks, so a stream no instance lift or
          [occurred]/[at] binding reads never pays for it *)
  mutable horizon : Time.t;
      (** the log and [by_oid] are retired up to here (inclusive) *)
  type_horizons : Time.t Event_type.Tbl.t;
      (** per-type posting retirement bounds; at least [horizon] *)
  mutable listeners : (Occurrence.t -> unit) list;
      (** notified after every insert, in registration order *)
  mutable generation : int;  (** [truncate_to] calls so far *)
}

let dummy_occurrence =
  Occurrence.make
    ~eid:(Ident.Eid.of_int 0)
    ~etype:(Event_type.create ~class_name:"_")
    ~oid:(Ident.Oid.of_int 0) ~timestamp:Time.origin

let create () =
  {
    clock = Time.Clock.create ();
    eids = Ident.Eid.generator ();
    log = Vec.create ~dummy:dummy_occurrence;
    by_type = Event_type.Tbl.create 64;
    by_type_oid = Type_oid_tbl.create 256;
    by_oid = Int_map.empty;
    oids_synced = 0;
    horizon = Time.origin;
    type_horizons = Event_type.Tbl.create 64;
    listeners = [];
    generation = 0;
  }

let clock t = t.clock
let size t = Vec.length t.log
let live_size t = Vec.live_length t.log
let horizon t = t.horizon
let generation t = t.generation

(* The bound below which type-restricted queries on [etype] may have lost
   occurrences to retirement; queries with [after >= type_horizon] are
   exact. *)
let type_horizon t etype =
  match Event_type.Tbl.find_opt t.type_horizons etype with
  | Some h -> Time.max h t.horizon
  | None -> t.horizon
let now t = Time.Clock.now t.clock
let probe_now t = Time.Clock.probe_now t.clock
let on_insert t f = t.listeners <- t.listeners @ [ f ]

(* Timestamp of the log entry a posting refers to: the (non-decreasing)
   search key of every posting-list bisection. *)
let stamp_at t i = Occurrence.timestamp (Vec.get t.log i)

let type_index t etype =
  match Event_type.Tbl.find_opt t.by_type etype with
  | Some v -> v
  | None ->
      let v = Vec.create ~dummy:0 in
      Event_type.Tbl.add t.by_type etype v;
      Obs.Metrics.set_gauge g_posting_lists (Event_type.Tbl.length t.by_type);
      v

let type_oid_index t etype oid =
  let key = (etype, Ident.Oid.to_int oid) in
  match Type_oid_tbl.find_opt t.by_type_oid key with
  | Some v -> v
  | None ->
      let v = Vec.create ~dummy:Time.origin in
      Type_oid_tbl.add t.by_type_oid key v;
      v

(* Index an occurrence under its exact type and, for attribute-qualified
   modify events, also under the unqualified modify on the same class so
   that coarse subscriptions see it. *)
let index_types occ =
  let etype = Occurrence.etype occ in
  match (Event_type.operation etype, Event_type.attribute etype) with
  | Event_type.Modify, Some _ ->
      [ etype; Event_type.modify ~class_name:(Event_type.class_name etype) () ]
  | _ -> [ etype ]

let indexed_types = index_types

let oid_index t oid =
  let key = Ident.Oid.to_int oid in
  match Int_map.find_opt key t.by_oid with
  | Some v -> v
  | None ->
      let v = Vec.create ~dummy:Time.origin in
      t.by_oid <- Int_map.add key v t.by_oid;
      v

(* Applies [cut] to every object's instants and drops the objects it
   left without a live one: an absent object reads as "no live events",
   so the index only ever holds what a window can still reach. *)
let prune_oids t cut =
  t.by_oid <-
    Int_map.filter
      (fun _ v ->
        cut v;
        not (Vec.is_empty v))
      t.by_oid

let sync_oids t =
  let n = Vec.length t.log in
  for i = t.oids_synced to n - 1 do
    let occ = Vec.get t.log i in
    Vec.push (oid_index t (Occurrence.oid occ)) (Occurrence.timestamp occ)
  done;
  t.oids_synced <- n

let insert t occ =
  Obs.Metrics.incr c_recorded;
  Obs.Trace.set_eid (Ident.Eid.to_int (Occurrence.eid occ));
  let pos = Vec.length t.log in
  Vec.push t.log occ;
  List.iter
    (fun key ->
      Vec.push (type_index t key) pos;
      Obs.Metrics.incr c_posting_appends;
      Vec.push
        (type_oid_index t key (Occurrence.oid occ))
        (Occurrence.timestamp occ))
    (index_types occ);
  List.iter (fun f -> f occ) t.listeners

let record t ~etype ~oid =
  let timestamp = Time.Clock.next_event_instant t.clock in
  let occ =
    Occurrence.make ~eid:(Ident.Eid.fresh t.eids) ~etype ~oid ~timestamp
  in
  insert t occ;
  occ

let record_at t ~etype ~oid ~timestamp =
  if not (Time.( > ) timestamp (Time.Clock.now t.clock)) then
    invalid_arg "Event_base.record_at: timestamps must be strictly increasing";
  if not (Time.is_event_instant timestamp) then
    invalid_arg "Event_base.record_at: not an event instant";
  Time.Clock.advance_to t.clock timestamp;
  let occ =
    Occurrence.make ~eid:(Ident.Eid.fresh t.eids) ~etype ~oid ~timestamp
  in
  insert t occ;
  occ

(* Rollback support: forget every occurrence strictly after [instant] and
   rewind the clock and EID generator, so the log is exactly what it was
   when [instant] was the present.  Every index is append-only in
   timestamp order, so each one is cut with a single binary search; the
   posting lists are cut *before* the log so their entries still resolve,
   and objects left without an instant leave the per-object index. *)
let truncate_to t ~instant =
  t.generation <- t.generation + 1;
  let cut v ~key = Vec.truncate v (Vec.bisect_right v ~key instant + 1) in
  Event_type.Tbl.iter (fun _ v -> cut v ~key:(stamp_at t)) t.by_type;
  cut t.log ~key:Occurrence.timestamp;
  Type_oid_tbl.iter (fun _ v -> cut v ~key:(fun x -> x)) t.by_type_oid;
  prune_oids t (cut ~key:(fun x -> x));
  t.oids_synced <- min t.oids_synced (Vec.length t.log);
  Time.Clock.rewind_to t.clock instant;
  (* EIDs are issued densely, one per logged occurrence, so the undone
     ones are exactly those beyond the remaining length. *)
  Ident.Eid.rewind t.eids ~count:(Vec.length t.log);
  (* Horizons never cross the rollback target (retirement clamps to the
     transaction start), but the recorded per-type bounds may refer to
     just-undone instants — rewind them so they stay meaningful. *)
  if Time.( > ) t.horizon instant then t.horizon <- instant;
  Event_type.Tbl.filter_map_inplace
    (fun _ h -> Some (Time.min h instant))
    t.type_horizons

(* Sliding-window retirement (the dual of [truncate_to]): release every
   occurrence at or before [horizon] — and, per type, at or before
   [type_horizon etype], which may be later for types no live rule window
   can reach back to.  Indices stay stable ({!Vec.retire_prefix}); the
   posting lists are retired *before* the log so their bisection keys
   still resolve.  Horizons need not be monotone across calls (a new rule
   may shrink a type's bound): retirement simply never un-retires. *)
let retire_to t ~horizon ~type_horizon =
  let retired_before = Vec.start t.log in
  Event_type.Tbl.iter
    (fun etype v ->
      let h = Time.max horizon (type_horizon etype) in
      Vec.retire_prefix v (Vec.bisect_right v ~key:(stamp_at t) h + 1);
      let prev =
        match Event_type.Tbl.find_opt t.type_horizons etype with
        | Some p -> p
        | None -> Time.origin
      in
      if Time.( > ) h prev then Event_type.Tbl.replace t.type_horizons etype h)
    t.by_type;
  (* A fully retired per-(type, object) posting is indistinguishable
     from an absent one (every lookup treats absence as "no live
     events"), so drop the table entry outright — the index stays
     O(live window), not O(objects ever seen); a later event on the
     same pair re-creates it on demand. *)
  let dead = ref [] in
  Type_oid_tbl.iter
    (fun ((etype, _) as key) v ->
      let h = Time.max horizon (type_horizon etype) in
      Vec.retire_prefix v (Vec.bisect_right v ~key:(fun x -> x) h + 1);
      if Vec.is_empty v then dead := key :: !dead)
    t.by_type_oid;
  List.iter (Type_oid_tbl.remove t.by_type_oid) !dead;
  (* Crash site between the index passes and the log retire: a process
     killed mid-retirement leaves indexes ahead of the log — recovery
     rebuilds both from the journal, so the half-state must never need
     to be readable again. *)
  Failpoint.hit "window.retire";
  Vec.retire_prefix t.log
    (Vec.bisect_right t.log ~key:Occurrence.timestamp horizon + 1);
  (* Like the per-(type, object) postings, an object whose instants all
     retired leaves the index; at a commit boundary the horizon is past
     the clock, so every object goes at once.  Occurrences retired before
     the index covered them need never be indexed. *)
  if Time.( >= ) horizon (now t) then t.by_oid <- Int_map.empty
  else
    prune_oids t (fun v ->
        Vec.retire_prefix v (Vec.bisect_right v ~key:(fun x -> x) horizon + 1));
  t.oids_synced <- max t.oids_synced (Vec.start t.log);
  if Time.( > ) horizon t.horizon then begin
    t.horizon <- horizon;
    Obs.Metrics.set_gauge g_horizon (Time.to_int horizon)
  end;
  Obs.Metrics.add c_retired (Vec.start t.log - retired_before)

let clipped_upper window ~at = Time.min at (Window.upto window)

let postings t etype =
  let r = Event_type.Tbl.find_opt t.by_type etype in
  if r <> None then Obs.Metrics.incr c_posting_probes;
  r

(* Timestamp of the most recent occurrence of [etype] inside [window],
   observed at instant [at]; [None] when there is none.  This is the
   positive branch of the paper's ts function for primitive event types. *)
let last_of_type t ~etype ~window ~at =
  match postings t etype with
  | None -> None
  | Some v -> (
      let upper = clipped_upper window ~at in
      let i = Vec.bisect_right v ~key:(stamp_at t) upper in
      if i < Vec.start v then None
      else
        let ts = stamp_at t (Vec.get v i) in
        if Time.( > ) ts (Window.after window) then Some ts else None)

(* Newest occurrence of [etype] anywhere in the log, O(1): the posting
   list is append-only, so its last entry is the answer.  Lets callers
   rule out an arrival after some instant without a binary search. *)
let newest_of_type t ~etype =
  match Event_type.Tbl.find_opt t.by_type etype with
  | None -> None
  | Some v -> (
      match Vec.last v with Some i -> Some (stamp_at t i) | None -> None)

(* Per-object variant: the positive branch of ots. *)
let last_of_type_on t ~etype ~oid ~window ~at =
  match Type_oid_tbl.find_opt t.by_type_oid (etype, Ident.Oid.to_int oid) with
  | None -> None
  | Some v -> (
      let upper = clipped_upper window ~at in
      let i = Vec.bisect_right v ~key:(fun x -> x) upper in
      if i < Vec.start v then None
      else
        let ts = Vec.get v i in
        if Time.( > ) ts (Window.after window) then Some ts else None)

let iter_in t ~window f =
  let lo = Vec.bisect_after t.log ~key:Occurrence.timestamp (Window.after window) in
  let n = Vec.length t.log in
  let rec loop i =
    if i < n then
      let occ = Vec.get t.log i in
      if Time.( <= ) (Occurrence.timestamp occ) (Window.upto window) then begin
        f occ;
        loop (i + 1)
      end
  in
  loop lo

let occurrences_in t ~window =
  let acc = ref [] in
  iter_in t ~window (fun occ -> acc := occ :: !acc);
  List.rev !acc

let timestamps_in t ~window =
  List.map Occurrence.timestamp (occurrences_in t ~window)

(* Two bisections, not a window scan: this is the R <> 0 gate the
   Trigger Support consults on every rule check. *)
let is_empty_in t ~window =
  let lo =
    Vec.bisect_after t.log ~key:Occurrence.timestamp (Window.after window)
  in
  let hi =
    Vec.bisect_right t.log ~key:Occurrence.timestamp (Window.upto window)
  in
  hi < lo

module Int_set = Set.Make (Int)

(* Distinct objects affected by any occurrence in [window], observed at
   [at], in ascending oid: the "oid in R" set that instance-to-set
   lifting ranges over, and the binding order of [occurred] and [at]. *)
let oids_in t ~window ~at =
  let upper = clipped_upper window ~at in
  let after = Window.after window in
  if Time.( <= ) upper after then []
  else begin
    sync_oids t;
    (* Each live object is checked with one binary search: it belongs iff
       it has an event instant in (after, upper]. *)
    List.rev
      (Int_map.fold
         (fun key stamps acc ->
           let i = Vec.bisect_right stamps ~key:(fun x -> x) upper in
           if i >= Vec.start stamps && Time.( > ) (Vec.get stamps i) after
           then Ident.Oid.of_int key :: acc
           else acc)
         t.by_oid [])
  end

(* Distinct objects affected by occurrences of [etype] in [window] at
   [at]; the candidate set for evaluating event formulas. *)
let oids_of_type t ~etype ~window ~at =
  match postings t etype with
  | None -> []
  | Some v ->
      let upper = clipped_upper window ~at in
      let lo = Vec.bisect_after v ~key:(stamp_at t) (Window.after window) in
      let hi = Vec.bisect_right v ~key:(stamp_at t) upper in
      let acc = ref Int_set.empty in
      for i = lo to hi do
        acc :=
          Int_set.add
            (Ident.Oid.to_int (Occurrence.oid (Vec.get t.log (Vec.get v i))))
            !acc
      done;
      List.map Ident.Oid.of_int (Int_set.elements !acc)

(* Ascending timestamps of occurrences of [etype] on [oid] in [window],
   clipped at [at]; used by the [at] event formula. *)
let timestamps_of_type_on t ~etype ~oid ~window ~at =
  match Type_oid_tbl.find_opt t.by_type_oid (etype, Ident.Oid.to_int oid) with
  | None -> []
  | Some v ->
      let upper = clipped_upper window ~at in
      let lo = Vec.bisect_after v ~key:(fun x -> x) (Window.after window) in
      let hi = Vec.bisect_right v ~key:(fun x -> x) upper in
      let rec loop i acc = if i < lo then acc else loop (i - 1) (Vec.get v i :: acc) in
      loop hi []

(* Ascending, de-duplicated instants in (after, upto] that carry at least
   one of [types]: the relevant-instant set a delta-driven trigger check
   probes, gathered by merging the per-type posting ranges instead of
   scanning the window. *)
let timestamps_of_types_in t ~types ~after ~upto =
  if Time.( >= ) after upto then []
  else begin
    let acc = ref Int_set.empty in
    List.iter
      (fun etype ->
        match postings t etype with
        | None -> ()
        | Some v ->
            let lo = Vec.bisect_after v ~key:(stamp_at t) after in
            let hi = Vec.bisect_right v ~key:(stamp_at t) upto in
            for i = lo to hi do
              acc := Int_set.add (Vec.get v i) !acc
            done)
      types;
    List.map (stamp_at t) (Int_set.elements !acc)
  end

let to_list t = Vec.to_list t.log

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  Vec.iter (fun occ -> Fmt.pf ppf "%a@," Occurrence.pp occ) t.log;
  Fmt.pf ppf "@]"
