(** The ts / ots semantics of the event calculus (Section 4).

    [ts] maps an expression, an instant and a window R to a signed integer:
    positive iff the expression is active, with the magnitude carrying the
    activation timestamp (or the evaluation instant when inactive).
    Negation is sign flip, so boolean laws (De Morgan, distributivity, …)
    hold for the values themselves. *)

open Chimera_util
open Chimera_event

type style =
  | Logical  (** Case-analysis definition (the "logical style"). *)
  | Algebraic
      (** Closed form via min/max and the sign function u (the "algebraic
          style"); provably equal to {!Logical} and property-tested so. *)

type env

val env : ?style:style -> Event_base.t -> window:Window.t -> env
(** An evaluation context: the event base, the window R (events since the
    rule's last consumption) and the semantic style (default {!Logical}). *)

val window : env -> Window.t
val event_base : env -> Event_base.t
val with_window : env -> window:Window.t -> env

val u : int -> int
(** The sign function: [1] on positives, [-1] otherwise. *)

val ts : env -> at:Time.t -> Expr.set -> int
val ots : env -> at:Time.t -> Expr.inst -> Ident.Oid.t -> int

val lift : env -> at:Time.t -> Expr.inst -> int
(** Instance-to-set lifting (Section 4.3): the maximum of [ots] over the
    objects affected within the window at [at] — the minimum for a
    top-level instance negation — folded from scratch; [-at] ([+at]
    under the minimum) when no object is affected.  [ts] of [Inst ie]. *)

val ts_with :
  lift:(env -> at:Time.t -> Expr.inst -> int) ->
  env ->
  at:Time.t ->
  Expr.set ->
  int
(** [ts] with every [Inst] node answered by [lift] instead of {!lift} —
    where {!Lift} plugs in its incremental state.  Counted and timed like
    [ts]: one [ts.evals] and one [ts.eval_ns] per call. *)

val active : env -> at:Time.t -> Expr.set -> bool
(** [ts > 0]. *)

val active_on : env -> at:Time.t -> Expr.inst -> Ident.Oid.t -> bool

val activation : env -> at:Time.t -> Expr.set -> Time.t option
(** The activation timestamp when active. *)

val exists_active : env -> upto:Time.t -> Expr.set -> Time.t option
(** First instant in [(window.after, upto]] (plus the bound itself) at
    which the expression is active — the existential core of the
    triggering predicate T(r, t) of Section 4.4.  Exact: the sign of ts
    can only change at event instants. *)

val occurred_objects :
  ?candidates:Ident.Oid.t list -> env -> at:Time.t -> Expr.inst -> Ident.Oid.t list
(** Objects bound by the [occurred] event formula: those activating the
    instance expression at [at].  Defaults to candidates affected within
    the window; pass [candidates] to widen (negations can hold of objects
    untouched by any event). *)

val occurrence_instants :
  env -> at:Time.t -> Expr.inst -> Ident.Oid.t -> Time.t list
(** Instants bound by the [at] event formula: event instants in the window
    at which the expression arises for the object (activation timestamp
    equal to the instant itself), in ascending order. *)

val series : env -> Expr.set -> instants:Time.t list -> (Time.t * int) list
(** Samples [ts] at the given instants (the Fig. 5 reproduction). *)
