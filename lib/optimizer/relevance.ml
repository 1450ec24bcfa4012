(* The relevance filter the Trigger Support consults (Section 5.1).

   A new event occurrence of type [p] constitutes a positive variation of
   [p] (at both granularities), so recomputation for a rule can be skipped
   when V(E) does not require a positive variation of any type the
   occurrence matches.  The one case V(E) cannot see is an expression
   whose sign moves without any occurrence of its own types: negation-
   dominated ones, those active on the empty prefix the exact semantics
   probes at the window's lower bound, and those with an instance node
   that an object new to the window flips.  Every arrival is relevant to
   those.  The same filter is sound for both detection modes. *)

open Chimera_event
open Chimera_calculus

(* Sign of ts on a window that contains activity but no occurrence of any
   of the expression's own primitive types: every primitive is inactive, so
   the sign is fully determined.  A [true] result means the rule can become
   triggered by the mere presence of unrelated events (or right after its
   own consideration window moves), so no type-based filter is sound for
   it. *)
let rec active_without_occurrences = function
  | Expr.Prim _ -> false
  | Expr.Not e -> not (active_without_occurrences e)
  | Expr.And (a, b) ->
      active_without_occurrences a && active_without_occurrences b
  | Expr.Or (a, b) ->
      active_without_occurrences a || active_without_occurrences b
  | Expr.Seq (a, b) ->
      active_without_occurrences a && active_without_occurrences b
  | Expr.Inst ie -> active_without_occurrences_inst ie

and active_without_occurrences_inst = function
  | Expr.I_prim _ -> false
  | Expr.I_not e -> not (active_without_occurrences_inst e)
  | Expr.I_and (a, b) ->
      active_without_occurrences_inst a && active_without_occurrences_inst b
  | Expr.I_or (a, b) ->
      active_without_occurrences_inst a || active_without_occurrences_inst b
  | Expr.I_seq (a, b) ->
      active_without_occurrences_inst a && active_without_occurrences_inst b

(* Sign of ts on an *empty* window prefix (the probe at the window's lower
   bound under the exact existential semantics): as above, but the object
   universe is empty, so a min-lifted instance negation is vacuously active
   while every other lifted expression is inactive, whatever its body. *)
let rec active_on_empty_prefix = function
  | Expr.Prim _ -> false
  | Expr.Not e -> not (active_on_empty_prefix e)
  | Expr.And (a, b) -> active_on_empty_prefix a && active_on_empty_prefix b
  | Expr.Or (a, b) -> active_on_empty_prefix a || active_on_empty_prefix b
  | Expr.Seq (a, b) -> active_on_empty_prefix a && active_on_empty_prefix b
  | Expr.Inst (Expr.I_not _) -> true
  | Expr.Inst _ -> false

(* Does an instance node change sign when an object with none of its
   types joins the window's universe?  A max-lift does when its body is
   active on such an object, say [-=B += -=A]; a min-lift [-=e] does when
   [e] is. *)
let rec flipped_by_fresh_objects = function
  | Expr.Prim _ -> false
  | Expr.Not e -> flipped_by_fresh_objects e
  | Expr.And (a, b) | Expr.Or (a, b) | Expr.Seq (a, b) ->
      flipped_by_fresh_objects a || flipped_by_fresh_objects b
  | Expr.Inst (Expr.I_not body) -> active_without_occurrences_inst body
  | Expr.Inst body -> active_without_occurrences_inst body

type t = {
  v : Simplify.v_set;
  always_relevant : bool;
  (* Positive-variation subscriptions, precomputed for the fast path. *)
  positive : Event_type.t list;
}

let of_expr e =
  let v = Simplify.v_of_expr e in
  let positive =
    List.filter_map
      (fun (etype, pol) ->
        match pol with
        | Variation.Positive | Variation.Both -> Some etype
        | Variation.Negative -> None)
      (Simplify.bindings v)
  in
  {
    v;
    always_relevant =
      active_without_occurrences e || active_on_empty_prefix e
      || flipped_by_fresh_objects e;
    positive;
  }

let v_set t = t.v
let always_relevant t = t.always_relevant
let positive_types t = t.positive

(* [occurrence] is the (possibly attribute-qualified) type of an arriving
   event; a subscription on the unqualified modify matches it too. *)
let relevant t ~occurrence =
  t.always_relevant
  || List.exists
       (fun subscription -> Event_type.generalizes ~subscription ~occurrence)
       t.positive

let pp ppf t = Simplify.pp ppf t.v
