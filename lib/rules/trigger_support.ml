(* The Trigger Support (Section 5): after every non-interruptible block it
   determines the newly triggered rules by evaluating ts for each
   non-triggered rule over its window R, consulting the statically derived
   V(E) to skip recomputations that cannot change the sign.

   Two detection modes:

   - [Exact] implements the existential semantics of Section 4.4 literally:
     the rule is triggered if ts was positive at *some* instant since the
     last consideration.  The sign of ts only changes at event instants, so
     the support probes the window's lower bound once per window plus every
     new event instant (incremental: [scan_from] remembers coverage).

   - [Endpoint] evaluates ts at the current instant only, the cheaper
     behaviour sketched in the implementation section. *)

open Chimera_util
open Chimera_event
open Chimera_calculus
open Chimera_optimizer
module Obs = Chimera_obs.Obs

(* The rule-wake phase: one [trigger.wake] span per post-block sweep, and
   counters mirroring the per-run [stats] record into the registry. *)
let c_checks = Obs.Metrics.counter "trigger.checks"
let c_recomputations = Obs.Metrics.counter "trigger.recomputations"
let c_probes = Obs.Metrics.counter "trigger.probes"
let c_skipped = Obs.Metrics.counter "trigger.skipped"
let c_fired = Obs.Metrics.counter "trigger.fired"
let c_woken = Obs.Metrics.counter "trigger.woken"
let c_idle = Obs.Metrics.counter "trigger.idle"
let h_wake = Obs.Metrics.histogram "trigger.wake_ns"

let log_src = Logs.Src.create "chimera.trigger" ~doc:"Trigger Support decisions"

module Log = (val Logs.src_log log_src : Logs.LOG)

type detection = Exact | Endpoint
type wake_mode = Sweep | Indexed

type stats = {
  mutable checks : int;  (** per-rule trigger checks performed *)
  mutable recomputations : int;  (** ts (re)computations *)
  mutable probes : int;  (** instants at which ts was evaluated *)
  mutable skipped : int;  (** checks skipped thanks to V(E) *)
  mutable fired : int;  (** rule triggerings *)
  mutable woken : int;  (** rules drained from the dirty set *)
  mutable idle : int;  (** rules a wake never visited *)
}

let stats () =
  {
    checks = 0;
    recomputations = 0;
    probes = 0;
    skipped = 0;
    fired = 0;
    woken = 0;
    idle = 0;
  }

let reset_stats s =
  s.checks <- 0;
  s.recomputations <- 0;
  s.probes <- 0;
  s.skipped <- 0;
  s.fired <- 0;
  s.woken <- 0;
  s.idle <- 0

type config = {
  detection : detection;
  optimizer : bool;  (** consult V(E) before recomputing ts *)
  wake : wake_mode;
      (** [Sweep] visits every rule after every block (the legacy path);
          [Indexed] drains only the rules subscribed to a type that
          arrived since their last visit — O(affected rules) per block,
          behaviour-preserving (differential-tested against [Sweep]). *)
}

let default_config = { detection = Exact; optimizer = true; wake = Indexed }

(* ------------------------------------------------------ indexed wake *)

(* The reverse V(E) index over whole rules: each rule subscribes to the
   positive-variation types of its V(E) — or to every arrival when it is
   always-relevant, the one case type filtering is unsound for, in either
   detection mode.  An arriving occurrence marks exactly the subscribed
   rules dirty, and the post-block wake drains the dirty set instead of
   sweeping the table.  Marking is O(1) and deduplicated by the rule's
   [wake_pending] flag, so the dirty set is bounded by the rule count
   whatever the event volume. *)
module Wake = struct
  type t = {
    subs : Rule.t list Event_type.Tbl.t;
        (** positive-variation subscriptions, keyed like the event base's
            posting lists (qualified modifies match under their alias) *)
    mutable wildcard : Rule.t list;  (** marked on every arrival *)
    mutable dirty : Rule.t list;  (** pending drain, newest first *)
  }

  let create () =
    { subs = Event_type.Tbl.create 32; wildcard = []; dirty = [] }

  let mark t rule =
    if not rule.Rule.wake_pending then begin
      rule.Rule.wake_pending <- true;
      t.dirty <- rule :: t.dirty
    end

  let subscribe t rule =
    let relevance = Rule.relevance rule in
    if Relevance.always_relevant relevance then
      t.wildcard <- rule :: t.wildcard
    else
      List.iter
        (fun ty ->
          let rules =
            match Event_type.Tbl.find_opt t.subs ty with
            | Some rules -> rules
            | None -> []
          in
          Event_type.Tbl.replace t.subs ty (rule :: rules))
        (Relevance.positive_types relevance)

  (* A rule enters dirty as it enters the index: events already in its
     window (defined mid-transaction) get their check at the next wake. *)
  let add_rule t rule =
    subscribe t rule;
    mark t rule

  let on_event t occ =
    List.iter (mark t) t.wildcard;
    List.iter
      (fun key ->
        match Event_type.Tbl.find_opt t.subs key with
        | Some rules -> List.iter (mark t) rules
        | None -> ())
      (Event_base.indexed_types occ)

  (* Re-derive the whole index from the table — the abort/recovery path,
     where rules may have been removed and every window moved.  Marks
     everything dirty: one full sweep-equivalent wake, then delta-driven
     again. *)
  let rebuild t table =
    List.iter (fun rule -> rule.Rule.wake_pending <- false) t.dirty;
    Event_type.Tbl.reset t.subs;
    t.wildcard <- [];
    t.dirty <- [];
    Rule_table.iter (add_rule t) table

  (* Oldest-first, so a drain visits rules in marking order. *)
  let drain t =
    let d = t.dirty in
    t.dirty <- [];
    List.iter (fun rule -> rule.Rule.wake_pending <- false) d;
    List.rev d
end

(* One activation probe for [rule]: the Section-4 evaluator, with the
   rule's [Inst] nodes answered by its incremental lift state. *)
let rule_active eb ~window ~at rule =
  Lift.ts rule.Rule.lift (Ts.env eb ~window) ~at > 0

(* Is there, among the occurrences in (from, upto], one whose type is
   relevant to the rule? *)
let relevant_arrival eb rule ~from ~upto =
  if Time.( >= ) from upto then false
  else begin
    let window = Window.make ~after:from ~upto in
    let relevance = Rule.relevance rule in
    let found = ref false in
    Event_base.iter_in eb ~window (fun occ ->
        if (not !found)
           && Relevance.relevant relevance ~occurrence:(Occurrence.etype occ)
        then found := true);
    !found
  end

let trigger stats rule =
  rule.Rule.triggered <- true;
  stats.fired <- stats.fired + 1;
  Log.debug (fun m -> m "rule %s triggered" (Rule.name rule))

(* Check one rule after a block; [now] is a probe instant after every
   recorded occurrence. *)
let check_rule config stats eb rule =
  if not rule.Rule.triggered then begin
    stats.checks <- stats.checks + 1;
    let after = Rule.trigger_window_start rule in
    let now = Event_base.probe_now eb in
    if Time.( < ) after now then begin
      let window = Window.make ~after ~upto:now in
      (* The R <> 0 gate: a rule reacts only when something happened. *)
      if not (Event_base.is_empty_in eb ~window) then begin
        match config.detection with
        | Endpoint ->
            let since = Time.max rule.Rule.last_recomputation after in
            let skip =
              config.optimizer
              && Time.( > ) rule.Rule.last_recomputation Time.origin
              && not (relevant_arrival eb rule ~from:since ~upto:now)
            in
            if skip then begin
              stats.skipped <- stats.skipped + 1;
              Log.debug (fun m ->
                  m "rule %s: endpoint check skipped via V(E)" (Rule.name rule));
              rule.Rule.last_recomputation <- now
            end
            else begin
              stats.recomputations <- stats.recomputations + 1;
              stats.probes <- stats.probes + 1;
              let positive = rule_active eb ~window ~at:now rule in
              rule.Rule.last_recomputation <- now;
              rule.Rule.last_sign_positive <- positive;
              if positive then trigger stats rule
            end
        | Exact ->
            let first_scan = Time.equal rule.Rule.scan_from after in
            let relevance = Rule.relevance rule in
            (* Delta-driven candidate restriction: unless the rule is
               always-relevant, its sign can only turn positive at an
               arrival of one of its positive V(E) types (the very
               property the V(E) skip below relies on), so the probe
               instants come straight off the posting lists:
               O(log n + matches) instead of scanning the whole uncovered
               window.  The window's lower-bound and current-instant
               probes of a first scan are unnecessary here: such a rule
               is inactive on an empty prefix, and positive at [now] ⇒
               positive at its newest positive-type arrival. *)
            let restricted =
              config.wake = Indexed && config.optimizer
              && not (Relevance.always_relevant relevance)
            in
            if restricted then begin
              let candidates =
                Event_base.timestamps_of_types_in eb
                  ~types:(Relevance.positive_types relevance)
                  ~after:rule.Rule.scan_from ~upto:now
              in
              match candidates with
              | [] ->
                  stats.skipped <- stats.skipped + 1;
                  Log.debug (fun m ->
                      m "rule %s: no posting in scan window" (Rule.name rule));
                  rule.Rule.scan_from <- now
              | _ :: _ ->
                  stats.recomputations <- stats.recomputations + 1;
                  let found =
                    List.exists
                      (fun at ->
                        stats.probes <- stats.probes + 1;
                        rule_active eb ~window ~at rule)
                      candidates
                  in
                  rule.Rule.scan_from <- now;
                  rule.Rule.last_sign_positive <- found;
                  if found then trigger stats rule
            end
            else
            let skip =
              config.optimizer
              && not
                   (relevant_arrival eb rule ~from:rule.Rule.scan_from ~upto:now)
            in
            if skip then begin
              stats.skipped <- stats.skipped + 1;
              Log.debug (fun m ->
                  m "rule %s: exact scan skipped via V(E)" (Rule.name rule));
              (* Irrelevant arrivals cannot flip the sign at the skipped
                 instants, so coverage advances. *)
              rule.Rule.scan_from <- now
            end
            else begin
              stats.recomputations <- stats.recomputations + 1;
              let scan_window =
                Window.make ~after:rule.Rule.scan_from ~upto:now
              in
              let candidates =
                let news = Event_base.timestamps_in eb ~window:scan_window in
                if first_scan then (after :: news) @ [ now ] else news
              in
              let found =
                List.exists
                  (fun at ->
                    stats.probes <- stats.probes + 1;
                    rule_active eb ~window ~at rule)
                  candidates
              in
              rule.Rule.scan_from <- now;
              rule.Rule.last_sign_positive <- found;
              if found then trigger stats rule
            end
      end
    end
  end

(* One post-block wake: the sweep visits every rule; the indexed wake
   drains the dirty set — rules untouched by the block's events are never
   visited, and show up in [idle] instead. *)
let run_checks config stats eb wake table =
  match config.wake with
  | Sweep -> Rule_table.iter (check_rule config stats eb) table
  | Indexed ->
      let woken = Wake.drain wake in
      let n = List.length woken in
      stats.woken <- stats.woken + n;
      stats.idle <- stats.idle + max 0 (Rule_table.cardinal table - n);
      List.iter (check_rule config stats eb) woken

let check_all config stats eb wake table =
  if Obs.enabled () then begin
    let checks0 = stats.checks
    and recomputations0 = stats.recomputations
    and probes0 = stats.probes
    and skipped0 = stats.skipped
    and fired0 = stats.fired
    and woken0 = stats.woken
    and idle0 = stats.idle in
    let tok = Obs.Trace.begin_ "trigger.wake" in
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.end_into h_wake tok;
        Obs.Metrics.add c_checks (stats.checks - checks0);
        Obs.Metrics.add c_recomputations
          (stats.recomputations - recomputations0);
        Obs.Metrics.add c_probes (stats.probes - probes0);
        Obs.Metrics.add c_skipped (stats.skipped - skipped0);
        Obs.Metrics.add c_fired (stats.fired - fired0);
        Obs.Metrics.add c_woken (stats.woken - woken0);
        Obs.Metrics.add c_idle (stats.idle - idle0))
      (fun () -> run_checks config stats eb wake table)
  end
  else run_checks config stats eb wake table

(* ------------------------------------------------- snapshot / restore *)

(* The per-rule runtime state the Trigger Support owns: everything a
   transaction abort must wind back.  Snapshots capture it by value for
   every rule in the table; restore puts it back and drops rules defined
   after the snapshot (a rule defined inside an aborted transaction was
   never defined). *)
(* ------------------------------------------------ retirement horizons *)

(* The event types whose occurrences a rule's evaluation can probe: the
   primitives of its event expression (every ts probe, positive or
   negated, and the V(E) posting-list restrictions) plus the primitives
   of its condition's event formulas. *)
let interest_types rule =
  let spec = Rule.spec rule in
  Event_type.Set.union
    (Expr.primitives spec.Rule.event)
    (Condition.event_types spec.Rule.condition)

(* Per-type safe retirement horizon: the paper's forgetting rule read off
   the Trigger Support state.  Every probe a rule can still issue is
   bounded below by its formula window start (last consumption for
   consuming rules, the transaction start for preserving ones — trigger
   windows and scan coverage never trail it), so occurrences of type T at
   or before [min] over the rules interested in T can never be observed
   again.  Types no rule is interested in clamp to [tx_start]: a rule
   defined later in the transaction starts its windows there, and the raw
   log is never retired past it either (abort rewinds exactly to it). *)
let type_horizons table ~tx_start =
  let mins = Event_type.Tbl.create 16 in
  Rule_table.iter
    (fun rule ->
      let start = Rule.formula_window_start rule ~tx_start in
      Event_type.Set.iter
        (fun ty ->
          match Event_type.Tbl.find_opt mins ty with
          | Some h when Time.( <= ) h start -> ()
          | _ -> Event_type.Tbl.replace mins ty start)
        (interest_types rule))
    table;
  fun etype ->
    match Event_type.Tbl.find_opt mins etype with
    | Some h -> h
    | None -> tx_start

type rule_state = {
  rule : Rule.t;
  triggered : bool;
  last_consideration : Time.t;
  last_consumption : Time.t;
  scan_from : Time.t;
  last_recomputation : Time.t;
  last_sign_positive : bool;
}

type snapshot = rule_state list

let snapshot table =
  List.map
    (fun rule ->
      {
        rule;
        triggered = rule.Rule.triggered;
        last_consideration = rule.Rule.last_consideration;
        last_consumption = rule.Rule.last_consumption;
        scan_from = rule.Rule.scan_from;
        last_recomputation = rule.Rule.last_recomputation;
        last_sign_positive = rule.Rule.last_sign_positive;
      })
    (Rule_table.rules table)

let restore table saved =
  let keep = Hashtbl.create 16 in
  List.iter (fun st -> Hashtbl.replace keep (Rule.name st.rule) ()) saved;
  List.iter
    (fun rule ->
      let name = Rule.name rule in
      if not (Hashtbl.mem keep name) then
        ignore (Rule_table.remove table name))
    (Rule_table.rules table);
  List.iter
    (fun st ->
      let rule = st.rule in
      rule.Rule.triggered <- st.triggered;
      rule.Rule.last_consideration <- st.last_consideration;
      rule.Rule.last_consumption <- st.last_consumption;
      rule.Rule.scan_from <- st.scan_from;
      rule.Rule.last_recomputation <- st.last_recomputation;
      rule.Rule.last_sign_positive <- st.last_sign_positive)
    saved
