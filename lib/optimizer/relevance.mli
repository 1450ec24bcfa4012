(** The relevance filter consulted by the Trigger Support (Section 5.1):
    decide, from V(E) alone, whether an arriving event occurrence can
    possibly change a rule's ts sign, and hence whether recomputation may
    be skipped. *)

open Chimera_event
open Chimera_calculus

type t

val of_expr : Expr.set -> t

val v_set : t -> Simplify.v_set

val always_relevant : t -> bool
(** The sign of ts can move with no occurrence of the expression's own
    primitive types: it is active on a window without them
    (negation-dominated) or on the empty prefix, or an object new to the
    window flips one of its instance nodes.  Every arrival is then
    relevant. *)

val positive_types : t -> Event_type.t list
(** The positive-variation subscriptions of V(E): unless
    [always_relevant] holds, ts turns positive only at an arrival of one
    of these types, so positive at [now] ⇒ positive at its newest
    positive-type arrival — the reverse-index subscription set and the
    probe instants of an exact check. *)

val relevant : t -> occurrence:Event_type.t -> bool
(** Can an arrival of this type turn ts positive?  Sound for both endpoint
    detection and the exact existential semantics of Section 4.4. *)

val active_without_occurrences : Expr.set -> bool
(** Sign of ts on a window with activity but no occurrence of the
    expression's own primitives (it is fully determined). *)

val pp : Format.formatter -> t -> unit

val active_on_empty_prefix : Chimera_calculus.Expr.set -> bool
(** Sign of ts at the window's lower-bound probe, where the object universe
    is empty: a min-lifted instance negation is then vacuously active. *)
