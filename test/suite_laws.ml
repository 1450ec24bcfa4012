(* Property tests for the formal semantics (Section 4): agreement of the
   logical and algebraic styles, De Morgan and the other boolean laws the
   paper lists, lifting inequalities, and structural sanity of ts values.

   All laws are checked as *value* equalities of ts at every sign regime of
   a random history, which is the paper's headline claim ("achieving this
   result has required a non-obvious twisting of the ts functions"). *)

open Core

let on_all_probes h f =
  let eb = Gen.build_event_base h in
  let env = Gen.ts_env eb in
  List.for_all (fun at -> f env at) (Gen.probe_instants eb)

let value_law ?count name profile ~lhs ~rhs =
  Gen.qcheck ?count name
    (Gen.arb_history_and_exprs2 profile)
    (fun (h, (a, b)) ->
      on_all_probes h (fun env at ->
          Ts.ts env ~at (lhs a b) = Ts.ts env ~at (rhs a b)))

let value_law3 ?count name profile ~lhs ~rhs =
  Gen.qcheck ?count name
    (Gen.arb_history_and_exprs3 profile)
    (fun (h, (a, (b, c))) ->
      on_all_probes h (fun env at ->
          Ts.ts env ~at (lhs a b c) = Ts.ts env ~at (rhs a b c)))

let logical_equals_algebraic =
  Gen.qcheck "logical style = algebraic style"
    (Gen.arb_history_and_expr Gen.Full)
    (fun (h, e) ->
      let eb = Gen.build_event_base h in
      let logical = Gen.ts_env ~style:Ts.Logical eb in
      let algebraic = Gen.ts_env ~style:Ts.Algebraic eb in
      List.for_all
        (fun at -> Ts.ts logical ~at e = Ts.ts algebraic ~at e)
        (Gen.probe_instants eb))

let double_negation =
  Gen.qcheck "--E = E" (Gen.arb_history_and_expr Gen.Full) (fun (h, e) ->
      on_all_probes h (fun env at ->
          Ts.ts env ~at (Expr.not_ (Expr.not_ e)) = Ts.ts env ~at e))

let de_morgan_conj =
  value_law "-(A + B) = (-A , -B)" Gen.Full
    ~lhs:(fun a b -> Expr.not_ (Expr.conj a b))
    ~rhs:(fun a b -> Expr.disj (Expr.not_ a) (Expr.not_ b))

let de_morgan_disj =
  value_law "-(A , B) = (-A + -B)" Gen.Full
    ~lhs:(fun a b -> Expr.not_ (Expr.disj a b))
    ~rhs:(fun a b -> Expr.conj (Expr.not_ a) (Expr.not_ b))

let conj_commutative =
  value_law "A + B = B + A" Gen.Full ~lhs:Expr.conj ~rhs:(fun a b ->
      Expr.conj b a)

let disj_commutative =
  value_law "A , B = B , A" Gen.Full ~lhs:Expr.disj ~rhs:(fun a b ->
      Expr.disj b a)

let conj_associative =
  value_law3 "(A + B) + C = A + (B + C)" Gen.Full
    ~lhs:(fun a b c -> Expr.conj (Expr.conj a b) c)
    ~rhs:(fun a b c -> Expr.conj a (Expr.conj b c))

let disj_associative =
  value_law3 "(A , B) , C = A , (B , C)" Gen.Full
    ~lhs:(fun a b c -> Expr.disj (Expr.disj a b) c)
    ~rhs:(fun a b c -> Expr.disj a (Expr.disj b c))

(* Distributivity and precedence factoring.  On the negation-free fragment
   every inactive ts value is exactly -t, and the laws hold as value
   equalities.  Under negation, inactive magnitudes differ (they carry the
   negated component's stamp), so conj/disj distributivity weakens to the
   triggering level (sign equality) — and factoring a disjunction out of a
   precedence's *second* operand additionally requires the first operand to
   be monotone (a negation there can be active at the earlier disjunct's
   stamp but not at the later one), so that law is stated on the
   negation-free fragment only, which is where the paper's proof sketch
   lives. *)

let sign_law3 ?count name profile ~lhs ~rhs =
  Gen.qcheck ?count name
    (Gen.arb_history_and_exprs3 profile)
    (fun (h, (a, (b, c))) ->
      on_all_probes h (fun env at ->
          Ts.active env ~at (lhs a b c) = Ts.active env ~at (rhs a b c)))

let conj_distributes_over_disj_values =
  value_law3 "A + (B , C) = (A + B) , (A + C)  [negation-free, values]"
    Gen.Regular
    ~lhs:(fun a b c -> Expr.conj a (Expr.disj b c))
    ~rhs:(fun a b c -> Expr.disj (Expr.conj a b) (Expr.conj a c))

let conj_distributes_over_disj_signs =
  sign_law3 "A + (B , C) = (A + B) , (A + C)  [triggering level]" Gen.Full
    ~lhs:(fun a b c -> Expr.conj a (Expr.disj b c))
    ~rhs:(fun a b c -> Expr.disj (Expr.conj a b) (Expr.conj a c))

let disj_factoring_left_of_seq =
  value_law3 "(A , B) < C = (A < C) , (B < C)" Gen.Full
    ~lhs:(fun a b c -> Expr.seq (Expr.disj a b) c)
    ~rhs:(fun a b c -> Expr.disj (Expr.seq a c) (Expr.seq b c))

let disj_factoring_right_of_seq =
  value_law3 "A < (B , C) = (A < B) , (A < C)  [negation-free]" Gen.Regular
    ~lhs:(fun a b c -> Expr.seq a (Expr.disj b c))
    ~rhs:(fun a b c -> Expr.disj (Expr.seq a b) (Expr.seq a c))

(* Structural sanity: a positive ts value is the timestamp of the
   activation instant, hence at most the evaluation instant. *)
let activation_bounded =
  Gen.qcheck "positive ts carries an instant <= at"
    (Gen.arb_history_and_expr Gen.Full)
    (fun (h, e) ->
      on_all_probes h (fun env at ->
          let v = Ts.ts env ~at e in
          v = 0 || abs v <= Time.to_int at))

(* Negation-free expressions are monotone: once active, appending further
   events never deactivates them (within one window). *)
let regular_monotone =
  Gen.qcheck "negation-free activation is monotone"
    (Gen.arb_history_and_expr Gen.Regular)
    (fun (h, e) ->
      let eb = Gen.build_event_base h in
      let env = Gen.ts_env eb in
      let actives =
        List.map (fun at -> Ts.active env ~at e) (Gen.probe_instants eb)
      in
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> (a <= b) && non_decreasing rest
        | _ -> true
      in
      non_decreasing actives)

(* Lifting inequalities (Section 4.3): an instance-oriented composition is
   at least as strict as its set-oriented counterpart. *)
let lifted pairs =
  Gen.qcheck "instance operators imply their set counterparts"
    (QCheck.make
       ~print:(fun (h, (i, j), k) ->
         Printf.sprintf "history=[%s] prims=(%d,%d) op=%d" (Gen.print_history h)
           i j k)
       QCheck.Gen.(
         triple Gen.gen_history
           (pair (int_range 0 2) (int_range 0 2))
           (int_range 0 (List.length pairs - 1))))
    (fun (h, (i, j), k) ->
      let a = Gen.alphabet.(i) and b = Gen.alphabet.(j) in
      let inst_op, set_op = List.nth pairs k in
      let ie = inst_op (Expr.I_prim a) (Expr.I_prim b) in
      let se = set_op (Expr.prim a) (Expr.prim b) in
      on_all_probes h (fun env at ->
          (not (Ts.active env ~at (Expr.inst ie))) || Ts.active env ~at se))

let instance_implies_set =
  lifted
    [
      (Expr.i_conj, Expr.conj); (Expr.i_disj, Expr.disj); (Expr.i_seq, Expr.seq);
    ]

(* On primitives, the set-lifted instance negation coincides with the set
   negation exactly (the paper states this equivalence). *)
let instance_negation_of_primitive =
  Gen.qcheck "-=p lifts to -p on primitives"
    (QCheck.make
       ~print:(fun (h, i) ->
         Printf.sprintf "history=[%s] prim=%d" (Gen.print_history h) i)
       QCheck.Gen.(pair Gen.gen_history (int_range 0 2)))
    (fun (h, i) ->
      let p = Gen.alphabet.(i) in
      on_all_probes h (fun env at ->
          Ts.ts env ~at (Expr.Inst (Expr.I_not (Expr.I_prim p)))
          = Ts.ts env ~at (Expr.not_ (Expr.prim p))))

(* ots of a negation-free instance expression never exceeds the ts of its
   set-oriented counterpart. *)
let rec set_of_inst = function
  | Expr.I_prim p -> Expr.prim p
  | Expr.I_not e -> Expr.not_ (set_of_inst e)
  | Expr.I_and (a, b) -> Expr.conj (set_of_inst a) (set_of_inst b)
  | Expr.I_or (a, b) -> Expr.disj (set_of_inst a) (set_of_inst b)
  | Expr.I_seq (a, b) -> Expr.seq (set_of_inst a) (set_of_inst b)

let ots_below_ts =
  Gen.qcheck "ots <= ts on negation-free instance expressions"
    (QCheck.make
       ~print:(fun (h, e) ->
         Printf.sprintf "history=[%s] expr=%s" (Gen.print_history h)
           (Expr.inst_to_string e))
       QCheck.Gen.(pair Gen.gen_history Gen.gen_inst_expr))
    (fun (h, ie) ->
      QCheck.assume (not (Expr.inst_has_negation ie));
      let eb = Gen.build_event_base h in
      let env = Gen.ts_env eb in
      let se = set_of_inst ie in
      List.for_all
        (fun at ->
          List.for_all
            (fun oid -> Ts.ots env ~at ie oid <= Ts.ts env ~at se)
            (List.map Ident.Oid.of_int [ 1; 2; 3 ]))
        (Gen.probe_instants eb))

(* exists_active agrees with a brute-force scan over all probe regimes. *)
let exists_active_exact =
  Gen.qcheck "exists_active = brute-force regime scan"
    (Gen.arb_history_and_expr Gen.Full)
    (fun (h, e) ->
      let eb = Gen.build_event_base h in
      let upto = Event_base.probe_now eb in
      let window = Window.make ~after:(Time.of_int 1) ~upto in
      let env = Ts.env eb ~window in
      let brute =
        List.exists
          (fun at -> Ts.active env ~at e)
          (List.filter (fun at -> Time.(at >= of_int 1)) (Gen.probe_instants eb))
      in
      let fast = Ts.exists_active env ~upto e <> None in
      brute = fast)

let suite =
  [
    logical_equals_algebraic;
    double_negation;
    de_morgan_conj;
    de_morgan_disj;
    conj_commutative;
    disj_commutative;
    conj_associative;
    disj_associative;
    conj_distributes_over_disj_values;
    conj_distributes_over_disj_signs;
    disj_factoring_left_of_seq;
    disj_factoring_right_of_seq;
    activation_bounded;
    regular_monotone;
    instance_implies_set;
    instance_negation_of_primitive;
    ots_below_ts;
    exists_active_exact;
  ]

(* Causality: ts at an instant never depends on later occurrences — the
   property that makes the incremental exact scan sound. *)
let ts_is_causal =
  Gen.qcheck ~count:300 "ts is causal (future events are invisible)"
    (QCheck.make
       ~print:(fun ((h, e), extra) ->
         Printf.sprintf "history=[%s] expr=%s extra=%d" (Gen.print_history h)
           (Expr.to_string e) (List.length extra))
       QCheck.Gen.(
         pair
           (pair Gen.gen_history (Gen.gen_set_expr Gen.Full))
           Gen.gen_history))
    (fun ((h, e), extra) ->
      let eb_short = Gen.build_event_base h in
      let probes = Gen.probe_instants eb_short in
      let short =
        let env = Gen.ts_env eb_short in
        List.map (fun at -> Ts.ts env ~at e) probes
      in
      let eb_long = Gen.build_event_base (h @ extra) in
      let long =
        let env = Gen.ts_env eb_long in
        List.map (fun at -> Ts.ts env ~at e) probes
      in
      short = long)

let suite = suite @ [ ts_is_causal ]

(* Negation normal form: value-preserving at every instant, idempotent,
   and actually in NNF.  The push through the lifting boundary makes this
   a machine-check of -(Inst ie) = Inst(-= ie) as well. *)
let nnf_preserves_values =
  Gen.qcheck ~count:400 "nnf preserves ts values"
    (Gen.arb_history_and_expr Gen.Full)
    (fun (h, e) ->
      let n = Normal_form.nnf e in
      Normal_form.in_nnf n
      && Expr.equal (Normal_form.nnf n) n
      && on_all_probes h (fun env at -> Ts.ts env ~at e = Ts.ts env ~at n))

let suite = suite @ [ nnf_preserves_values ]
