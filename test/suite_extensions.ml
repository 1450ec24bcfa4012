(* Extension subsystems: net effects (the holds replacement), the
   triggering-graph termination analysis, and HiPAC-style periodic clock
   events. *)

open Core

(* ------------------------------------------------------- net effects *)

let a = Domain.create_stock
let m = Domain.modify_stock_quantity
let mmin = Domain.modify_stock_minquantity
let d = Domain.delete_stock
let oid i = Ident.Oid.of_int i

let replay occs =
  let eb = Event_base.create () in
  List.iter (fun (etype, o) -> ignore (Event_base.record eb ~etype ~oid:(oid o))) occs;
  (eb, Window.all ~upto:(Event_base.probe_now eb))

let test_net_effects () =
  let eb, window =
    replay
      [
        (a, 1); (m, 1);          (* o1: created then modified *)
        (a, 2); (d, 2);          (* o2: created then deleted *)
        (m, 3); (mmin, 3);       (* o3: pre-existing, modified twice *)
        (m, 4); (d, 4);          (* o4: pre-existing, deleted *)
        (d, 5); (a, 5);          (* o5: deleted then re-created *)
      ]
  in
  let effects = Net_effect.compute eb ~window in
  let effect_of i = List.assoc (oid i) effects in
  (match effect_of 1 with
  | Net_effect.Net_created { class_name = "stock"; modified = [ "quantity" ] } -> ()
  | e -> Alcotest.failf "o1: %s" (Net_effect.effect_name e));
  (match effect_of 2 with
  | Net_effect.No_net_effect -> ()
  | e -> Alcotest.failf "o2: %s" (Net_effect.effect_name e));
  (match effect_of 3 with
  | Net_effect.Net_modified { modified = [ "minquantity"; "quantity" ]; _ } -> ()
  | e -> Alcotest.failf "o3: %s" (Net_effect.effect_name e));
  (match effect_of 4 with
  | Net_effect.Net_deleted _ -> ()
  | e -> Alcotest.failf "o4: %s" (Net_effect.effect_name e));
  (match effect_of 5 with
  | Net_effect.Net_created _ -> ()
  | e -> Alcotest.failf "o5: %s" (Net_effect.effect_name e));
  Alcotest.(check (list int)) "created" [ 1; 5 ]
    (List.map Ident.Oid.to_int (Net_effect.created eb ~window));
  Alcotest.(check (list int)) "deleted" [ 4 ]
    (List.map Ident.Oid.to_int (Net_effect.deleted eb ~window))

(* The calculus cross-check from the paper's footnote: for objects without
   re-creation patterns, net-created coincides with
   occurred(create += -=delete). *)
let test_net_effect_calculus_agreement () =
  let eb, window = replay [ (a, 1); (m, 1); (a, 2); (d, 2); (m, 3) ] in
  let env = Ts.env eb ~window in
  let at = Window.upto window in
  let formula = Expr_parse.parse_inst_exn "create(stock) += -=delete(stock)" in
  Alcotest.(check (list int))
    "footnote formula agrees"
    (List.map Ident.Oid.to_int (Net_effect.created eb ~window))
    (List.map Ident.Oid.to_int (Ts.occurred_objects env ~at formula))

(* ---------------------------------------------------------- analysis *)

let noop_condition = []

let rule name ?target ~event ~condition ~action () =
  {
    Rule.name;
    target;
    event = Expr_parse.parse_exn event;
    condition;
    action;
    coupling = Rule.Immediate;
    consumption = Rule.Consuming;
    priority = 0;
  }

let create_show =
  Action.A_create
    {
      class_name = "show";
      attrs = [ ("quantity", Query.Term (Query.Const (Value.Int 0))) ];
      bind = None;
    }

let test_triggering_graph () =
  let r1 =
    rule "onStock" ~event:"create(stock)" ~condition:noop_condition
      ~action:[ create_show ] ()
  in
  let r2 =
    rule "onShow" ~event:"create(show)" ~condition:noop_condition ~action:[] ()
  in
  Alcotest.(check bool) "r1 may trigger r2" true (Analysis.may_trigger r1 r2);
  Alcotest.(check bool) "r2 cannot trigger r1" false (Analysis.may_trigger r2 r1);
  Alcotest.(check bool) "acyclic set terminates" true
    (Analysis.terminates [ r1; r2 ])

let test_self_loop_detected () =
  let looping =
    rule "loop" ~event:"create(show)" ~condition:noop_condition
      ~action:[ create_show ] ()
  in
  Alcotest.(check bool) "self loop flagged" false (Analysis.terminates [ looping ]);
  match Analysis.potential_cycles [ looping ] with
  | [ [ "loop" ] ] -> ()
  | other ->
      Alcotest.failf "unexpected cycles: %s"
        (String.concat "; " (List.map (String.concat ",") other))

let test_mutual_cycle_detected () =
  let r1 =
    rule "ping" ~event:"create(show)" ~condition:noop_condition
      ~action:
        [
          Action.A_create
            { class_name = "stock"; attrs = []; bind = None };
        ]
      ()
  in
  let r2 =
    rule "pong" ~event:"create(stock)" ~condition:noop_condition
      ~action:[ create_show ] ()
  in
  (match Analysis.potential_cycles [ r1; r2 ] with
  | [ cycle ] ->
      Alcotest.(check (list string)) "both in the cycle" [ "ping"; "pong" ]
        (List.sort String.compare cycle)
  | other -> Alcotest.failf "expected one cycle, got %d" (List.length other));
  (* checkStockQty (modify action vs create subscription) stays acyclic. *)
  Alcotest.(check bool) "paper's rule terminates" true
    (Analysis.terminates [ Scenario.check_stock_qty ])

let test_modify_attribute_matching () =
  (* A rule modifying quantity must not be seen as triggering a rule
     subscribed to modify(stock.minquantity), but does match a rule on the
     unqualified modify(stock). *)
  let producer =
    rule "producer" ~event:"create(stock)"
      ~condition:[ Condition.Range { var = "S"; class_name = "stock" } ]
      ~action:
        [
          Action.A_modify
            { var = "S"; attribute = "quantity"; value = Query.Term (Query.Const (Value.Int 0)) };
        ]
      ()
  in
  let on_min =
    rule "onMin" ~event:"modify(stock.minquantity)" ~condition:noop_condition
      ~action:[] ()
  in
  let on_any =
    rule "onAny" ~event:"modify(stock)" ~condition:noop_condition ~action:[] ()
  in
  Alcotest.(check bool) "attribute mismatch" false
    (Analysis.may_trigger producer on_min);
  Alcotest.(check bool) "unqualified matches" true
    (Analysis.may_trigger producer on_any)

let test_negation_rules_always_reachable () =
  (* A rule on -create(stock) can be triggered by ANY activity, so any
     event-producing rule gets an edge to it. *)
  let producer =
    rule "producer" ~event:"create(show)" ~condition:noop_condition
      ~action:[ create_show ] ()
  in
  let negation =
    rule "negation" ~event:"-create(stock)" ~condition:noop_condition
      ~action:[] ()
  in
  Alcotest.(check bool) "edge into negation rule" true
    (Analysis.may_trigger producer negation)

(* ------------------------------------------------------------ timers *)

let test_periodic_timer () =
  let engine = Engine.create (Domain.schema ()) in
  let tick = Engine.define_timer engine ~name:"tick" ~period_lines:3 in
  let spec =
    {
      Rule.name = "onTick";
      target = None;
      event = Expr.prim tick;
      condition = [];
      action =
        [
          Action.A_create
            {
              class_name = "show";
              attrs = [ ("quantity", Query.Term (Query.Const (Value.Int 1))) ];
              bind = None;
            };
        ];
      coupling = Rule.Immediate;
      consumption = Rule.Consuming;
      priority = 0;
    }
  in
  let _ = Engine.define_exn engine spec in
  for _ = 1 to 9 do
    Engine.execute_line_exn engine []
  done;
  Alcotest.(check int) "fired every 3 lines" 3
    (List.length (Object_store.extent (Engine.store engine) ~class_name:"show"));
  Alcotest.(check (list string)) "timer registered" [ "tick" ]
    (Engine.timer_names engine)

let test_timer_composes_with_calculus () =
  (* "A tick with no stock creation since the last consideration":
     tick + -create(stock). *)
  let engine = Engine.create (Domain.schema ()) in
  let tick = Engine.define_timer engine ~name:"audit" ~period_lines:2 in
  let spec =
    {
      Rule.name = "auditIdle";
      target = None;
      event = Expr.conj (Expr.prim tick) (Expr.not_ (Expr.prim Domain.create_stock));
      condition =
        [
          Condition.Range { var = "W"; class_name = "show" };
          Condition.Compare
            (Query.Cmp (Query.Neq, Query.Attr ("W", "quantity"), Query.Const (Value.Int 9)));
        ];
      action =
        [
          Action.A_modify
            { var = "W"; attribute = "quantity"; value = Query.Term (Query.Const (Value.Int 9)) };
        ];
      coupling = Rule.Immediate;
      consumption = Rule.Consuming;
      priority = 0;
    }
  in
  let _ = Engine.define_exn engine spec in
  (* Seed a marker object. *)
  Engine.execute_line_exn engine
    [ Operation.Create { class_name = "show"; attrs = [ ("quantity", Value.Int 0) ] } ];
  (* Line 2 matures the timer with no stock creation: the idle audit fires. *)
  Engine.execute_line_exn engine [];
  let w = List.hd (Object_store.extent (Engine.store engine) ~class_name:"show") in
  match Object_store.get (Engine.store engine) w ~attribute:"quantity" with
  | Ok (Value.Int 9) -> ()
  | Ok v -> Alcotest.failf "marker is %s" (Value.to_string v)
  | Error e -> Alcotest.failf "%a" Object_store.pp_error e

let suite =
  [
    Alcotest.test_case "net effects" `Quick test_net_effects;
    Alcotest.test_case "net effects agree with the calculus footnote" `Quick
      test_net_effect_calculus_agreement;
    Alcotest.test_case "triggering graph edges" `Quick test_triggering_graph;
    Alcotest.test_case "self-loop detected" `Quick test_self_loop_detected;
    Alcotest.test_case "mutual cycle detected" `Quick test_mutual_cycle_detected;
    Alcotest.test_case "modify attribute matching" `Quick
      test_modify_attribute_matching;
    Alcotest.test_case "negation rules always reachable" `Quick
      test_negation_rules_always_reachable;
    Alcotest.test_case "periodic timers" `Quick test_periodic_timer;
    Alcotest.test_case "timer composes with negation" `Quick
      test_timer_composes_with_calculus;
  ]
