(* The derivation rules of Fig. 6.

   Starting from the requirement D+(E) ("ts of the whole expression gains a
   positive variation"), each rule rewrites a variation on a composite into
   variations on its components:

     D+(-E)  <= D-(E)             D-(-E)  <= D+(E)
     D+(A<B) <= D+(B)             D-(A<B) <= D-(B)
     D+(A op B) <= D+(A), D+(B)   D-(A op B) <= D-(A), D-(B)   (op = +, ,)

   with the object-scoped analogues for instance-oriented operators, and the
   lifting boundary mapping a set-level variation of an embedded instance
   expression to object-scoped variations of its body (negative polarity for
   the min-lifted instance negation).  Precedence propagates only through
   its second operand: a fresh occurrence of the first operand carries a
   timestamp later than the second operand's activation instant and so can
   never newly satisfy the precedence.

   Two deviations from Fig. 6 for [A < B] (and [<=]), both about the
   instant at which A is evaluated — B's activation timestamp:

   - a negation in B can stamp B with the current instant, so A is then
     evaluated now and its own arrivals count: the variation also
     propagates through A;
   - a negation in A makes A's sign non-monotone in that instant, and any
     arrival that moves B's stamp — a new B, or one that pulls it back,
     as C does in [(-B + A) < (A , -C)] — can flip A either way: B is
     then required with both polarities. *)

open Chimera_calculus

(* A variation requirement still referring to a subexpression. *)
type pending =
  | On_set of Variation.polarity * Expr.set
  | On_inst of Variation.polarity * Expr.inst

let pp_pending ppf = function
  | On_set (pol, Expr.Prim p) | On_inst (pol, Expr.I_prim p) ->
      Variation.pp ppf
        (Variation.make ~etype:p ~polarity:pol ~scope:Variation.Set_scope)
  | On_set (pol, e) ->
      Fmt.pf ppf "D%s(%a)" (Variation.polarity_symbol pol) Expr.pp e
  | On_inst (pol, e) ->
      Fmt.pf ppf "D%s^O(%a)" (Variation.polarity_symbol pol) Expr.pp_inst e

let is_primitive = function
  | On_set (_, Expr.Prim _) -> true
  | On_inst (_, Expr.I_prim _) -> true
  | _ -> false

(* The polarity the second operand of a precedence is required with. *)
let seq_second pol ~first_negated =
  if first_negated then Variation.Both else pol

(* One application of a Fig. 6 rule; primitives are left untouched. *)
let expand = function
  | On_set (_, Expr.Prim _) as p -> [ p ]
  | On_set (pol, Expr.Not e) -> [ On_set (Variation.negate_polarity pol, e) ]
  | On_set (pol, Expr.And (a, b)) | On_set (pol, Expr.Or (a, b)) ->
      [ On_set (pol, a); On_set (pol, b) ]
  | On_set (pol, Expr.Seq (a, b)) ->
      (* See the header for the two deviations from Fig. 6. *)
      let on_b =
        On_set (seq_second pol ~first_negated:(Expr.has_negation a), b)
      in
      if Expr.has_negation b then [ On_set (pol, a); on_b ] else [ on_b ]
  | On_set (pol, Expr.Inst (Expr.I_not e)) ->
      (* min-lifted: the set-level expression gains a positive variation
         when every object loses the negated body. *)
      [ On_inst (Variation.negate_polarity pol, e) ]
  | On_set (pol, Expr.Inst ie) -> [ On_inst (pol, ie) ]
  | On_inst (_, Expr.I_prim _) as p -> [ p ]
  | On_inst (pol, Expr.I_not e) -> [ On_inst (Variation.negate_polarity pol, e) ]
  | On_inst (pol, Expr.I_and (a, b)) | On_inst (pol, Expr.I_or (a, b)) ->
      [ On_inst (pol, a); On_inst (pol, b) ]
  | On_inst (pol, Expr.I_seq (a, b)) ->
      let on_b =
        On_inst (seq_second pol ~first_negated:(Expr.inst_has_negation a), b)
      in
      if Expr.inst_has_negation b then [ On_inst (pol, a); on_b ] else [ on_b ]

let to_variation = function
  | On_set (polarity, Expr.Prim etype) ->
      Variation.make ~etype ~polarity ~scope:Variation.Set_scope
  | On_inst (polarity, Expr.I_prim etype) ->
      Variation.make ~etype ~polarity ~scope:Variation.Object_scope
  | _ -> invalid_arg "Derive.to_variation: not primitive"

type trace = {
  expression : Expr.set;
  steps : pending list list;  (** intermediate worklists, first to last *)
  variations : Variation.t list;  (** fully derived, before simplification *)
}

let dedup_pending ps =
  let rec loop seen = function
    | [] -> List.rev seen
    | p :: rest ->
        if List.exists (fun q -> q = p) seen then loop seen rest
        else loop (p :: seen) rest
  in
  loop [] ps

(* Breadth-first expansion, recording each intermediate worklist so the
   Fig. 6 worked example can be printed step by step. *)
let derive expression =
  let rec loop acc current =
    if List.for_all is_primitive current then (List.rev acc, current)
    else
      let next = dedup_pending (List.concat_map expand current) in
      loop (current :: acc) next
  in
  let steps_rev, final = loop [] [ On_set (Variation.Positive, expression) ] in
  {
    expression;
    steps = steps_rev @ [ final ];
    variations = List.map to_variation final;
  }

let variations expression = (derive expression).variations

let pp_step ppf step = Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") pp_pending) step

let pp_trace ppf t =
  Fmt.pf ppf "@[<v>V(E) for E = %a@," Expr.pp t.expression;
  List.iter (fun step -> Fmt.pf ppf "= %a@," pp_step step) t.steps;
  Fmt.pf ppf "@]"
