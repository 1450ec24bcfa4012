(** The Event Base: append-only log of the occurrences of a transaction,
    with the per-type ("Occurred Events tree") and per-(type, object)
    indexes of the paper's implementation section. *)

open Chimera_util

type t

val create : unit -> t
val clock : t -> Time.Clock.clock

val size : t -> int
(** Occurrences ever recorded (retired ones included): the absolute end
    of the log, and the count the EID generator tracks. *)

val live_size : t -> int
(** Occurrences currently retained (what memory is proportional to). *)

val now : t -> Time.t
(** Instant of the most recent occurrence ([Time.origin] when empty). *)

val probe_now : t -> Time.t
(** A probe instant strictly after every recorded occurrence. *)

val record : t -> etype:Event_type.t -> oid:Ident.Oid.t -> Occurrence.t
(** Appends an occurrence at a fresh event instant. *)

val record_at :
  t -> etype:Event_type.t -> oid:Ident.Oid.t -> timestamp:Time.t -> Occurrence.t
(** Appends at a caller-chosen instant, which must be a strictly increasing
    event instant; used by tests and workload replay. *)

val on_insert : t -> (Occurrence.t -> unit) -> unit
(** Registers a listener called after every recorded occurrence (engine
    lines, timers, recovery replay alike), in registration order — the
    feed of the subscription indexes.  Listeners survive [truncate_to]
    and are never unregistered; register at most once per consumer. *)

val indexed_types : Occurrence.t -> Event_type.t list
(** The posting-list keys an occurrence is indexed under: its exact type
    and, for attribute-qualified modify events, also the unqualified
    modify on the same class (so coarse subscriptions see it). *)

val truncate_to : t -> instant:Time.t -> unit
(** Forgets every occurrence strictly after [instant] (across the log and
    all indexes) and rewinds the clock and EID generator, leaving the
    event base exactly as it was when [instant] was the present — the
    abort/rollback path. *)

val retire_to :
  t -> horizon:Time.t -> type_horizon:(Event_type.t -> Time.t) -> unit
(** The dual of [truncate_to]: releases every occurrence at or before
    [horizon] (log and per-object index) and, per type, at or before
    [max horizon (type_horizon etype)] (posting lists) — the
    sliding-window forgetting rule.  Surviving occurrences keep their log
    indices.  Sound when no live or restorable rule window reaches at or
    below the horizons; queries strictly above them are unaffected.
    Horizons need not be monotone across calls: retirement never
    un-retires, and a lower bound is a no-op. *)

val forget_objects : t -> oids:Ident.Oid.t list -> unit
(** Drops the per-object indexes of objects the store has purged
    (committed deletions).  Sound once their occurrences are retired or
    otherwise unreachable: an absent per-object index reads as "no live
    events", which is then exact.  Their first-seen registry slots are
    reclaimed as they become a prefix (churn workloads delete roughly in
    creation order). *)

val horizon : t -> Time.t
(** The instant the log has been retired up to (inclusive);
    [Time.origin] before any retirement. *)

val type_horizon : t -> Event_type.t -> Time.t
(** The bound below which type-restricted queries on this type may have
    lost occurrences to retirement (at least [horizon t]); queries with
    [after >= type_horizon] are exact. *)

val last_of_type :
  t -> etype:Event_type.t -> window:Window.t -> at:Time.t -> Time.t option
(** Timestamp of the most recent occurrence of [etype] within [window]
    observed at instant [at] — the positive branch of the paper's [ts]. *)

val last_of_type_on :
  t ->
  etype:Event_type.t ->
  oid:Ident.Oid.t ->
  window:Window.t ->
  at:Time.t ->
  Time.t option
(** Per-object variant — the positive branch of [ots]. *)

val newest_of_type : t -> etype:Event_type.t -> Time.t option
(** Newest occurrence of [etype] anywhere in the log, in O(1); [None]
    when the type never occurred. *)

val occurrences_in : t -> window:Window.t -> Occurrence.t list
val iter_in : t -> window:Window.t -> (Occurrence.t -> unit) -> unit
val timestamps_in : t -> window:Window.t -> Time.t list
val is_empty_in : t -> window:Window.t -> bool

val oids_in : t -> window:Window.t -> at:Time.t -> Ident.Oid.t list
(** Distinct objects affected by any occurrence in the window at [at]: the
    set the instance-to-set lifting ranges over. *)

val oids_of_type :
  t -> etype:Event_type.t -> window:Window.t -> at:Time.t -> Ident.Oid.t list

val timestamps_of_type_on :
  t ->
  etype:Event_type.t ->
  oid:Ident.Oid.t ->
  window:Window.t ->
  at:Time.t ->
  Time.t list
(** Ascending occurrence instants of [etype] on [oid]; drives the [at]
    event formula. *)

val timestamps_of_types_in :
  t -> types:Event_type.t list -> after:Time.t -> upto:Time.t -> Time.t list
(** Ascending, de-duplicated instants in [(after, upto]] carrying at
    least one of [types] (under the modify-attribute aliasing the
    indexes use), merged from the per-type posting lists — the
    relevant-instant set a delta-driven trigger check probes. *)

val to_list : t -> Occurrence.t list
val pp : Format.formatter -> t -> unit
