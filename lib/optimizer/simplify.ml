(* The simplification rules of Fig. 7.

   Derived variations on the same primitive event type collapse:

     - an object-scoped variation merges into a set-scoped one of the same
       polarity (a new occurrence of the type is a variation at both
       granularities), so scope is dropped;
     - a positive and a negative variation on the same type merge into the
       two-sided variation D(E).

   The result V(E) maps each primitive event type to the polarity of
   variation that forces a ts recomputation. *)

open Chimera_event

type v_set = Variation.polarity Event_type.Map.t

let of_variations vars =
  List.fold_left
    (fun acc v ->
      let etype = Variation.etype v and pol = Variation.polarity v in
      Event_type.Map.update etype
        (function
          | None -> Some pol
          | Some existing -> Some (Variation.merge_polarity existing pol))
        acc)
    Event_type.Map.empty vars

let v_of_expr e = of_variations (Derive.variations e)

let bindings = Event_type.Map.bindings

let mem = Event_type.Map.mem

let polarity_of v etype = Event_type.Map.find_opt etype v

let cardinal = Event_type.Map.cardinal

let pp ppf v =
  let pp_binding ppf (etype, pol) =
    Fmt.pf ppf "D%s(%a)" (Variation.polarity_symbol pol) Event_type.pp etype
  in
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") pp_binding) (bindings v)

let to_string v = Fmt.str "%a" pp v
