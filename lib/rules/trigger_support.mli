(** The Trigger Support (Section 5): after every non-interruptible block,
    determine the newly triggered rules by evaluating ts over each rule's
    window, consulting V(E) to skip recomputations that cannot flip the
    sign. *)

open Chimera_event

type detection =
  | Exact
      (** The existential semantics of Section 4.4: triggered if ts was
          positive at {e some} instant since the last consideration.
          Incremental: each instant is probed at most once. *)
  | Endpoint
      (** Evaluate ts at the current instant only — the cheaper behaviour
          sketched in the implementation section.  Equivalent to [Exact]
          on negation-free rules (activation is monotone). *)

type wake_mode =
  | Sweep  (** visit every rule after every block — the legacy path *)
  | Indexed
      (** drain only the rules subscribed (via V(E)) to a type that
          arrived since their last visit: O(affected rules) per block,
          behaviour-preserving (differential-tested against [Sweep]) *)

type stats = {
  mutable checks : int;  (** per-rule trigger checks performed *)
  mutable recomputations : int;  (** ts (re)computations *)
  mutable probes : int;  (** instants at which ts was evaluated *)
  mutable skipped : int;  (** checks skipped thanks to V(E) *)
  mutable fired : int;  (** rule triggerings *)
  mutable woken : int;  (** rules drained from the dirty set *)
  mutable idle : int;  (** rules a wake never visited *)
}

val stats : unit -> stats
val reset_stats : stats -> unit

type config = {
  detection : detection;
  optimizer : bool;  (** consult V(E) before recomputing ts *)
  wake : wake_mode;
}
(** Every probe evaluates ts in the logical style over the event-base
    indexes, with the rule's [Inst] nodes answered by its incremental
    lift state ({!Chimera_calculus.Lift}, equal to [Ts.lift] at every
    probe); the algebraic style agrees on every expression and instant
    (property-tested). *)

val default_config : config
(** Exact detection, optimizer on, indexed wake. *)

(** The reverse V(E) index over rules: each rule subscribes to the
    positive-variation types of its V(E) (or to every arrival when type
    filtering is unsound for it); an arriving occurrence marks the
    subscribed rules dirty, and the post-block wake under [Indexed]
    drains the dirty set instead of sweeping the table.  Marking is O(1),
    deduplicated by {!Rule.t.wake_pending}, so the dirty set is bounded
    by the rule count. *)
module Wake : sig
  type t

  val create : unit -> t

  val on_event : t -> Occurrence.t -> unit
  (** Feed from {!Event_base.on_insert}: marks the subscribers of the
      occurrence's index keys dirty. *)

  val add_rule : t -> Rule.t -> unit
  (** Subscribes a newly defined rule and marks it dirty, so events
      already in its window get their check at the next wake. *)

  val mark : t -> Rule.t -> unit
  (** Forces a rule into the next drain — the consideration path, whose
      window move re-arms the rule independently of new arrivals. *)

  val rebuild : t -> Rule_table.t -> unit
  (** Re-derives the whole index from the table and marks every rule
      dirty — the abort/recovery path. *)
end

val check_rule : config -> stats -> Event_base.t -> Rule.t -> unit
(** Checks one non-triggered rule at the current instant over its
    triggering window (events since its last consideration); sets its
    triggered flag when its event expression activated.  The R <> 0 gate
    keeps negation rules reactive rather than active.  The event base is
    the engine's current one. *)

val check_all :
  config -> stats -> Event_base.t -> Wake.t -> Rule_table.t -> unit
(** One post-block wake: sweeps the table or drains the dirty set,
    according to [config.wake]. *)

val type_horizons :
  Rule_table.t -> tx_start:Chimera_util.Time.t -> Event_type.t -> Chimera_util.Time.t
(** The per-type safe retirement horizon, read off the Trigger Support
    state: for each type, the minimum formula-window start (last
    consumption for consuming rules, [tx_start] for preserving ones)
    over the rules whose event expression or condition formulas probe
    it — occurrences at or before it can never be observed again.
    Types no rule is interested in clamp to [tx_start] (a rule defined
    later in the transaction starts its windows there).  Feed to
    {!Chimera_event.Event_base.retire_to}. *)

type snapshot
(** The per-rule runtime state the Trigger Support owns (triggered flag,
    consideration/consumption stamps, scan coverage), captured by value
    for every rule in a table. *)

val snapshot : Rule_table.t -> snapshot

val restore : Rule_table.t -> snapshot -> unit
(** Puts every captured rule back to its snapshotted state and removes
    rules added after the snapshot — a rule defined inside an aborted
    transaction was never defined. *)
