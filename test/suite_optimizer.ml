(* The static optimizer (Section 5.1): derivation rules (Fig. 6),
   simplification rules (Fig. 7), the worked V(E) example, and — the part
   that matters — soundness of the relevance filter, by property. *)

open Core

let etype name = Event_type.external_ ~name ~class_name:"obj"
let ea = etype "evA"
let eb_t = etype "evB"
let ec = etype "evC"

let pol_testable =
  Alcotest.testable
    (fun ppf p -> Fmt.string ppf (Variation.polarity_symbol p))
    ( = )

let v_of expr = Simplify.v_of_expr expr

let check_v expr expected =
  let v = v_of expr in
  Alcotest.(check int) "cardinality" (List.length expected) (Simplify.cardinal v);
  List.iter
    (fun (et, pol) ->
      Alcotest.(check (option pol_testable))
        (Event_type.to_string et) (Some pol)
        (Simplify.polarity_of v et))
    expected

(* Unit checks of the Fig. 6 rules. *)
let test_derive_primitive () =
  check_v (Expr.prim ea) [ (ea, Variation.Positive) ]

let test_derive_negation_flips () =
  check_v (Expr.not_ (Expr.prim ea)) [ (ea, Variation.Negative) ]

let test_derive_double_negation () =
  check_v
    (Expr.not_ (Expr.not_ (Expr.prim ea)))
    [ (ea, Variation.Positive) ]

let test_derive_binary_propagates_both () =
  check_v
    (Expr.conj (Expr.prim ea) (Expr.prim eb_t))
    [ (ea, Variation.Positive); (eb_t, Variation.Positive) ]

let test_derive_seq_second_operand_only () =
  (* D+(A < B) <= D+(B): a fresh A cannot newly satisfy the precedence. *)
  check_v
    (Expr.seq (Expr.prim ea) (Expr.prim eb_t))
    [ (eb_t, Variation.Positive) ]

let test_derive_seq_negated_second_operand () =
  (* A negation in the second operand un-freezes the first operand's
     evaluation instant: both sides are derived. *)
  check_v
    (Expr.seq (Expr.prim ea) (Expr.not_ (Expr.prim eb_t)))
    [ (ea, Variation.Positive); (eb_t, Variation.Negative) ]

let test_derive_instance_negation_lift () =
  (* min-lifted instance negation: positive variation of the whole comes
     from negative variations of the body. *)
  check_v
    (Expr.Inst (Expr.I_not (Expr.I_prim ea)))
    [ (ea, Variation.Negative) ]

(* The worked example of Section 5.1.  The OCR of the paper degrades the
   exact expression; this reconstruction exercises every rule class
   (negation, both binaries, the lifting boundary, instance negation) and
   lands on the published result V(E) = {D(A), D(B), D+(C)}. *)
let worked_example =
  Expr.disj_list
    [
      Expr.conj (Expr.prim ea) (Expr.prim eb_t);
      Expr.conj (Expr.prim ec) (Expr.not_ (Expr.prim ea));
      Expr.Inst
        (Expr.i_conj (Expr.I_prim ea)
           (Expr.i_conj (Expr.I_not (Expr.I_prim eb_t)) (Expr.I_prim ec)));
    ]

let test_worked_example () =
  check_v worked_example
    [
      (ea, Variation.Both); (eb_t, Variation.Both); (ec, Variation.Positive);
    ]

let test_trace_has_steps () =
  let trace = Derive.derive worked_example in
  Alcotest.(check bool) "several derivation steps" true
    (List.length trace.Derive.steps >= 3);
  Alcotest.(check bool) "final step all primitive" true
    (List.for_all
       (function
         | Derive.On_set (_, Expr.Prim _) | Derive.On_inst (_, Expr.I_prim _) ->
             true
         | _ -> false)
       (List.nth trace.Derive.steps (List.length trace.Derive.steps - 1)))

(* Fig. 7 simplification: scopes merge, opposite polarities merge to D. *)
let test_simplify_merges () =
  let mk polarity scope = Variation.make ~etype:ea ~polarity ~scope in
  let v =
    Simplify.of_variations
      [
        mk Variation.Positive Variation.Set_scope;
        mk Variation.Positive Variation.Object_scope;
      ]
  in
  Alcotest.(check (option pol_testable)) "same polarity merges"
    (Some Variation.Positive) (Simplify.polarity_of v ea);
  let v2 =
    Simplify.of_variations
      [
        mk Variation.Positive Variation.Set_scope;
        mk Variation.Negative Variation.Object_scope;
      ]
  in
  Alcotest.(check (option pol_testable)) "opposite polarities merge to both"
    (Some Variation.Both) (Simplify.polarity_of v2 ea)

(* Nullability: expressions that can be active with zero own-occurrences. *)
let test_always_relevant () =
  let check expr expected =
    Alcotest.(check bool) (Expr.to_string expr) expected
      (Relevance.active_without_occurrences expr)
  in
  check (Expr.prim ea) false;
  check (Expr.not_ (Expr.prim ea)) true;
  check (Expr.conj (Expr.not_ (Expr.prim ea)) (Expr.prim eb_t)) false;
  check (Expr.disj (Expr.not_ (Expr.prim ea)) (Expr.prim eb_t)) true;
  check (Expr.seq (Expr.not_ (Expr.prim ea)) (Expr.not_ (Expr.prim eb_t))) true

(* The deviations from Fig. 6 for a precedence whose first operand has a
   negation: an arrival that moves the second operand's stamp can flip
   the first operand either way, so it must count as a positive
   variation.  In the first expression a new A after a D deactivates
   -D < A and so activates the whole; in the second, C pulls (A , -C)
   back from the current instant to A's stamp, before B arrived. *)
let test_negated_first_operand () =
  let check_positive src name =
    let v = Simplify.v_of_expr (Expr_parse.parse_exn src) in
    let et =
      match Event_type.of_string name with
      | Ok et -> et
      | Error msg -> Alcotest.fail msg
    in
    match Simplify.polarity_of v et with
    | Some (Variation.Positive | Variation.Both) -> ()
    | Some Variation.Negative | None ->
        Alcotest.failf "V(%s) = %s has no positive variation of %s" src
          (Simplify.to_string v) name
  in
  check_positive "-(-D < A , -(C < C))" "A";
  check_positive "(-B + A) < (A , -C)" "C"

(* Instance nodes an object new to the window flips: the max-lift of a
   body active on an object with none of its types, and a min-lift -=e
   whose e is such a body.  Any arrival on a fresh object can then
   activate the expression, whatever its type.  The instance rules of the
   benchmark's composite workload are not of that kind and keep their
   subscriptions. *)
let test_fresh_object_nodes () =
  let check src expected =
    Alcotest.(check bool) src expected
      (Relevance.always_relevant (Relevance.of_expr (Expr_parse.parse_exn src)))
  in
  check "(-=B += -=A) + B" true;
  check "-(-=(-=A)) + A" true;
  check "(A += -=B) + B" false;
  check "-=A + B" false;
  check "((A <= B) += -=C) + C" false

(* The arrivals the filter calls irrelevant for [e]: every alphabet type
   it does not subscribe to, on each object a history can touch and on
   one no history touches (an object new to the window). *)
let irrelevant_arrivals e =
  let relevance = Relevance.of_expr e in
  List.concat_map
    (fun t ->
      if Relevance.relevant relevance ~occurrence:Gen.alphabet.(t) then []
      else List.init 4 (fun o -> (t, o)))
    [ 0; 1; 2 ]

let print_arrival (t, o) =
  Printf.sprintf "%s@o%d" (Event_type.to_string Gen.alphabet.(t)) o

(* Soundness (endpoint mode), by property: if the filter calls an arriving
   event irrelevant, appending it must not *activate* the expression.
   (It may deactivate it — e.g. A < -B losing its negation — but a
   non-triggered rule's previous sign is always negative: a positive sign
   at a check sets the sticky triggered flag, after which no checks run
   until consideration.  So only missed negative-to-positive flips would
   be unsound.)  Runs on the full operator profile. *)
let filter_soundness_endpoint =
  Gen.qcheck ~count:10_000 "irrelevant arrivals never activate the endpoint sign"
    (Gen.arb_history_and_expr Gen.Full)
    (fun (h, e) ->
      let active history =
        let eb = Gen.build_event_base history in
        Ts.active (Gen.ts_env eb) ~at:(Event_base.probe_now eb) e
      in
      active h
      || List.for_all
           (fun arrival ->
             (not (active (h @ [ arrival ])))
             || QCheck.Test.fail_reportf "%s activates it"
                  (print_arrival arrival))
           (irrelevant_arrivals e))

(* Soundness (exact mode): the same filter, with no extra case for
   negations — an irrelevant arrival cannot change whether some instant
   in the window activates the expression. *)
let filter_soundness_exact =
  Gen.qcheck ~count:10_000 "irrelevant arrivals never create activations"
    (Gen.arb_history_and_expr Gen.Full)
    (fun (h, e) ->
      let exists history =
        let eb = Gen.build_event_base history in
        let upto = Event_base.probe_now eb in
        let env =
          Ts.env eb ~window:(Window.make ~after:(Time.of_int 1) ~upto)
        in
        Ts.exists_active env ~upto e <> None
      in
      let before = exists h in
      List.for_all
        (fun arrival ->
          exists (h @ [ arrival ]) = before
          || QCheck.Test.fail_reportf "%s changes it" (print_arrival arrival))
        (irrelevant_arrivals e))

let suite =
  [
    Alcotest.test_case "D+ of a primitive" `Quick test_derive_primitive;
    Alcotest.test_case "negation flips polarity" `Quick
      test_derive_negation_flips;
    Alcotest.test_case "double negation restores polarity" `Quick
      test_derive_double_negation;
    Alcotest.test_case "binary operators propagate both sides" `Quick
      test_derive_binary_propagates_both;
    Alcotest.test_case "precedence propagates second operand" `Quick
      test_derive_seq_second_operand_only;
    Alcotest.test_case "negated second operand widens precedence" `Quick
      test_derive_seq_negated_second_operand;
    Alcotest.test_case "instance negation lifts negatively" `Quick
      test_derive_instance_negation_lift;
    Alcotest.test_case "worked example: V(E) = {DA, DB, D+C}" `Quick
      test_worked_example;
    Alcotest.test_case "derivation trace records steps" `Quick
      test_trace_has_steps;
    Alcotest.test_case "Fig. 7 merges" `Quick test_simplify_merges;
    Alcotest.test_case "nullability analysis" `Quick test_always_relevant;
    Alcotest.test_case "negated first operand: both polarities" `Quick
      test_negated_first_operand;
    Alcotest.test_case "fresh-object instance nodes are always relevant"
      `Quick test_fresh_object_nodes;
    filter_soundness_endpoint;
    filter_soundness_exact;
  ]

(* Golden catalogue: V(E) for a battery of expression shapes, one per
   Fig. 6 rule path and their compositions.  [P] = positive, [N] =
   negative, [B] = both. *)
let test_v_catalogue () =
  let v_string expr_src =
    let v = Simplify.v_of_expr (Expr_parse.parse_exn expr_src) in
    String.concat " "
      (List.map
         (fun (etype, pol) ->
           Printf.sprintf "%s%s"
             (match pol with
             | Variation.Positive -> "P"
             | Variation.Negative -> "N"
             | Variation.Both -> "B")
             (Event_type.to_string etype))
         (Simplify.bindings v))
  in
  let check expr expected =
    Alcotest.(check string) expr expected (v_string expr)
  in
  (* Primitives and boolean structure. *)
  check "A" "PA";
  check "A , B" "PA PB";
  check "A + B" "PA PB";
  check "-A" "NA";
  check "--A" "PA";
  check "-(A + B)" "NA NB";
  check "-(A , B)" "NA NB";
  check "A + -A" "BA";
  check "A , -B" "PA NB";
  (* Precedence: second operand only... *)
  check "A < B" "PB";
  check "A < B < C" "PC";
  check "(A , B) < C" "PC";
  check "-(A < B)" "NB";
  (* ...unless the second operand contains a negation (un-freezing). *)
  check "A < -B" "PA NB";
  check "A < (B + -C)" "PA PB NC";
  (* A negated first operand requires the second with both polarities. *)
  check "-A < B" "BB";
  check "-A < -B" "NA BB";
  check "-=A <= B" "BB";
  (* Instance operators and the lifting boundary. *)
  check "A += B" "PA PB";
  check "A ,= B" "PA PB";
  check "A <= B" "PB";
  check "-=A" "NA";
  check "-=(A += B)" "NA NB";
  check "A + -=(B <= C)" "PA NC";
  (* Mixed granularities collapse to per-type polarities. *)
  check "(A += B) , -A" "BA PB";
  check "(A <= B) + (B < A)" "PA PB"

let suite =
  suite @ [ Alcotest.test_case "V(E) golden catalogue" `Quick test_v_catalogue ]
