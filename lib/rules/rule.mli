(** ECA rule definitions and their runtime status: the Rule Table entries
    of Section 5 (triggered flag, last-consideration / last-consumption
    timestamps, and the statically derived V(E) relevance filter). *)

open Chimera_util
open Chimera_calculus
open Chimera_optimizer

type coupling = Immediate | Deferred
type consumption = Consuming | Preserving

type spec = {
  name : string;
  target : string option;
      (** a targeted rule may only mention events of this class *)
  event : Expr.set;
  condition : Condition.t;
  action : Action.t;
  coupling : coupling;
  consumption : consumption;
  priority : int;  (** higher is considered first *)
}

type t = {
  spec : spec;
  relevance : Relevance.t;
  seqno : int;  (** definition order; priority ties break on it *)
  mutable triggered : bool;
  mutable last_consideration : Time.t;
  mutable last_consumption : Time.t;
  mutable scan_from : Time.t;
      (** exact detection: instants at or before this were already probed *)
  mutable last_recomputation : Time.t;
      (** endpoint detection: when ts was last recomputed *)
  mutable last_sign_positive : bool;
  mutable wake_pending : bool;
      (** already enqueued in the dirty-rule set of the indexed wake
          (see {!Trigger_support.Wake}); dedups marking in O(1) *)
}

val spec : t -> spec
val name : t -> string
val relevance : t -> Relevance.t
val priority : t -> int

val make :
  seqno:int -> tx_start:Time.t -> spec -> (t, [> `Rule_error of string ]) result
(** Validates the targeting constraint and derives V(E). *)

val trigger_window_start : t -> Time.t
(** Lower bound of the triggering window R (Section 4.4): always the last
    consideration — earlier events lose the capability of triggering,
    whatever the consumption mode. *)

val formula_window_start : t -> tx_start:Time.t -> Time.t
(** Lower bound of the observed interval of the condition's event formulas
    (Section 3.3): the last consideration for consuming rules, the
    transaction start for preserving ones. *)

val detrigger : t -> at:Time.t -> unit
(** Consideration: clears the triggered flag, stamps the consideration
    instant and (for consuming rules) consumes the events before it. *)

val reset : t -> tx_start:Time.t -> unit
(** Transaction boundary: fresh windows, flag cleared. *)

val coupling_name : coupling -> string
val consumption_name : consumption -> string
val pp_spec : Format.formatter -> spec -> unit
val pp : Format.formatter -> t -> unit
