(** The simplification rules of Fig. 7: collapse derived variations into
    V(E), a map from primitive event type to required variation polarity. *)

open Chimera_event
open Chimera_calculus

type v_set = Variation.polarity Event_type.Map.t

val of_variations : Variation.t list -> v_set
(** Merges scopes (object-scoped collapses into set-scoped) and polarities
    (positive + negative = both). *)

val v_of_expr : Expr.set -> v_set
(** [of_variations (Derive.variations e)]. *)

val bindings : v_set -> (Event_type.t * Variation.polarity) list
val mem : Event_type.t -> v_set -> bool
val polarity_of : v_set -> Event_type.t -> Variation.polarity option
val cardinal : v_set -> int
val pp : Format.formatter -> v_set -> unit
val to_string : v_set -> string
