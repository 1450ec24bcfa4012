(* The Trigger Support: exact vs endpoint detection, optimizer
   transparency (V(E) filtering never changes behaviour, only work), and
   window/consumption handling at the support level. *)

open Core

let map_to_domain e =
  (* The shared generators emit abstract evA/evB/evC types; the engine only
     generates store events, so rules are remapped onto the domain. *)
  let translate p =
    match Event_type.to_string p with
    | "evA(obj)" -> Domain.create_stock
    | "evB(obj)" -> Domain.modify_stock_quantity
    | _ -> Domain.delete_stock
  in
  Expr.map_primitives translate e

let noop_rule name event =
  {
    Rule.name;
    target = None;
    event;
    condition = [];
    action = [];
    coupling = Rule.Immediate;
    consumption = Rule.Consuming;
    priority = 0;
  }

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.failf "engine error: %a" Engine.pp_error e

(* Replays (op-kind, index) pairs as single-op transaction lines. *)
let drive engine history =
  let live = ref [] in
  List.iter
    (fun (kind, idx) ->
      let op =
        match kind with
        | 0 ->
            Domain.new_stock ~quantity:(10 + idx) ~maxquantity:100
              ~minquantity:0
        | 1 -> (
            match !live with
            | [] ->
                Domain.new_stock ~quantity:(10 + idx) ~maxquantity:100
                  ~minquantity:0
            | l ->
                Operation.Modify
                  {
                    oid = List.nth l (idx mod List.length l);
                    attribute = "quantity";
                    value = Value.Int idx;
                  })
        | _ -> (
            match !live with
            | [] ->
                Domain.new_stock ~quantity:(10 + idx) ~maxquantity:100
                  ~minquantity:0
            | l -> Operation.Delete { oid = List.nth l (idx mod List.length l) })
      in
      ok (Engine.execute_line engine [ op ]);
      live := Object_store.extent (Engine.store engine) ~class_name:"stock")
    history

let arb_workload =
  QCheck.make
    ~print:(fun (es, h) ->
      Printf.sprintf "rules=[%s] ops=%d"
        (String.concat "; " (List.map Expr.to_string es))
        (List.length h))
    QCheck.Gen.(
      pair
        (list_size (int_range 1 5) (Gen.gen_set_expr Gen.Full))
        (list_size (int_range 0 25) (pair (int_range 0 2) (int_range 0 7))))

let run_config ?(wake = Trigger_support.Indexed) detection optimizer (es, h) =
  let config =
    {
      Engine.default_config with
      Engine.trigger = { Trigger_support.detection; optimizer; wake };
    }
  in
  let engine = Engine.create ~config (Domain.schema ()) in
  List.iteri
    (fun i e ->
      ignore
        (Engine.define_exn engine
           (noop_rule (Printf.sprintf "r%d" i) (map_to_domain e))))
    es;
  drive engine h;
  engine

(* The headline guarantee of Section 5.1: the optimization is behaviour-
   preserving, under either detection mode.  Same rules, same traffic,
   identical consideration counts — only the number of ts recomputations
   differs.  The reference is the sweep with the optimizer off: the
   indexed wake subscribes rules by V(E) whatever the optimizer flag. *)
let optimizer_transparent =
  Gen.qcheck ~count:150 "V(E) filtering never changes rule behaviour"
    arb_workload
    (fun w ->
      List.for_all
        (fun detection ->
          let with_opt = run_config detection true w in
          let without =
            run_config ~wake:Trigger_support.Sweep detection false w
          in
          let a = Engine.statistics with_opt
          and b = Engine.statistics without in
          a.Engine.considerations = b.Engine.considerations
          && a.Engine.trigger_stats.Trigger_support.fired
             = b.Engine.trigger_stats.Trigger_support.fired)
        [ Trigger_support.Exact; Trigger_support.Endpoint ])

let optimizer_saves_work =
  Gen.qcheck ~count:150 "V(E) filtering never adds recomputations"
    arb_workload
    (fun w ->
      let with_opt = run_config Trigger_support.Exact true w in
      let without = run_config Trigger_support.Exact false w in
      let a = Engine.statistics with_opt and b = Engine.statistics without in
      a.Engine.trigger_stats.Trigger_support.recomputations
      <= b.Engine.trigger_stats.Trigger_support.recomputations)

(* Endpoint detection only sees the final regime; exact detection also
   catches activations that happen strictly inside a block.  The rule
   -create(stock) + modify(stock.quantity) is transiently active between
   the modify and the create of the same line. *)
let test_exact_catches_transient () =
  let event =
    Expr.conj
      (Expr.not_ (Expr.prim Domain.create_stock))
      (Expr.prim Domain.modify_stock_quantity)
  in
  let run detection =
    let config =
      {
        Engine.default_config with
        Engine.trigger =
          { Trigger_support.default_config with detection };
      }
    in
    let engine = Engine.create ~config (Domain.schema ()) in
    (* Seed an object in a first transaction, then commit so the rule
       windows restart cleanly. *)
    let _ = Engine.define_exn engine (noop_rule "transient" event) in
    ok
      (Engine.execute_line engine
         [ Domain.new_stock ~quantity:5 ~maxquantity:10 ~minquantity:0 ]);
    ok (Engine.commit engine);
    let oid =
      List.hd (Object_store.extent (Engine.store engine) ~class_name:"stock")
    in
    (* One block: modify (rule momentarily active) then create (negation
       kills it at the endpoint). *)
    ok
      (Engine.execute_line engine
         [
           Operation.Modify { oid; attribute = "quantity"; value = Value.Int 1 };
           Domain.new_stock ~quantity:5 ~maxquantity:10 ~minquantity:0;
         ]);
    (Engine.statistics engine).Engine.trigger_stats.Trigger_support.fired
  in
  let exact = run Trigger_support.Exact in
  let endpoint = run Trigger_support.Endpoint in
  Alcotest.(check bool) "exact catches the transient activation" true (exact > endpoint)

(* On negation-free rules, exact and endpoint detection agree (activation
   is monotone within a window). *)
let exact_equals_endpoint_on_regular =
  Gen.qcheck ~count:150 "exact = endpoint on negation-free rules"
    (QCheck.make
       ~print:(fun (es, h) ->
         Printf.sprintf "rules=[%s] ops=%d"
           (String.concat "; " (List.map Expr.to_string es))
           (List.length h))
       QCheck.Gen.(
         pair
           (list_size (int_range 1 4) (Gen.gen_set_expr Gen.Regular))
           (list_size (int_range 0 25) (pair (int_range 0 2) (int_range 0 7)))))
    (fun w ->
      let exact = run_config Trigger_support.Exact true w in
      let endpoint = run_config Trigger_support.Endpoint true w in
      let a = Engine.statistics exact and b = Engine.statistics endpoint in
      a.Engine.considerations = b.Engine.considerations)

(* Preserving rules see the whole transaction again; consuming rules only
   what followed their last consideration. *)
let test_consumption_modes () =
  let count_with consumption =
    let engine = Engine.create (Domain.schema ()) in
    let spec =
      {
        Rule.name = "counts";
        target = None;
        event = Expr.prim Domain.create_stock;
        condition =
          [
            Condition.Occurred
              { expr = Expr.I_prim Domain.create_stock; var = "S" };
          ];
        action =
          [
            Action.A_modify
              {
                var = "S";
                attribute = "minquantity";
                value =
                  Query.Add
                    ( Query.Term (Query.Attr ("S", "minquantity")),
                      Query.Term (Query.Const (Value.Int 1)) );
              };
          ];
        coupling = Rule.Immediate;
        consumption;
        priority = 0;
      }
    in
    let _ = Engine.define_exn engine spec in
    ok
      (Engine.execute_line engine
         [ Domain.new_stock ~quantity:1 ~maxquantity:10 ~minquantity:0 ]);
    ok
      (Engine.execute_line engine
         [ Domain.new_stock ~quantity:1 ~maxquantity:10 ~minquantity:0 ]);
    let store = Engine.store engine in
    let first = List.hd (Object_store.extent store ~class_name:"stock") in
    match Object_store.get store first ~attribute:"minquantity" with
    | Ok (Value.Int n) -> n
    | _ -> Alcotest.fail "minquantity"
  in
  (* Consuming: the first object is processed once.  Preserving: the second
     line re-binds it (its creation is still in the window), so it is
     incremented twice. *)
  Alcotest.(check int) "consuming processes once" 1 (count_with Rule.Consuming);
  Alcotest.(check int) "preserving re-binds old events" 2
    (count_with Rule.Preserving)

let suite =
  [
    optimizer_transparent;
    optimizer_saves_work;
    Alcotest.test_case "exact catches transient activations" `Quick
      test_exact_catches_transient;
    exact_equals_endpoint_on_regular;
    Alcotest.test_case "consumption modes" `Quick test_consumption_modes;
  ]

(* Determinism: identical seeds and configs produce identical statistics
   (the property every bench table relies on). *)
let engine_is_deterministic =
  Gen.qcheck ~count:50 "engine runs are deterministic" arb_workload (fun w ->
      let a = Engine.statistics (run_config Trigger_support.Exact true w) in
      let b = Engine.statistics (run_config Trigger_support.Exact true w) in
      a.Engine.considerations = b.Engine.considerations
      && a.Engine.executions = b.Engine.executions
      && a.Engine.events = b.Engine.events
      && a.Engine.trigger_stats.Trigger_support.fired
         = b.Engine.trigger_stats.Trigger_support.fired)

let suite = suite @ [ engine_is_deterministic ]

(* The counter-budget guards (run in CI via `dune runtest`): under the
   indexed wake, per-event trigger work must stay flat as the rule set
   widens — a regression that reintroduces any O(rules)-per-event cost
   into the wake path blows these budgets and fails the build.  The
   scenario is the E11 shape in miniature: [n] rules over disjoint event
   types, round-robin creates, so exactly one rule is relevant per line.
   [event] is the rule on class [c]: a bare create, or the negation
   shape create(c) + -delete(c), which must be woken and probed at its
   creates only, like the bare one. *)
let counter_budget event =
  let n = 50 and lines = 400 in
  let class_name i = Printf.sprintf "b%d" i in
  let schema = Schema.create () in
  for i = 0 to n - 1 do
    match Schema.define schema ~name:(class_name i) ~attributes:[] () with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "schema"
  done;
  let config =
    {
      Engine.default_config with
      Engine.trigger =
        {
          Trigger_support.default_config with
          Trigger_support.wake = Trigger_support.Indexed;
        };
    }
  in
  let engine = Engine.create ~config schema in
  for i = 0 to n - 1 do
    ignore
      (Engine.define_exn engine
         (noop_rule (Printf.sprintf "b%d" i) (event (class_name i))))
  done;
  for line = 0 to lines - 1 do
    ok
      (Engine.execute_line engine
         [ Operation.Create { class_name = class_name (line mod n); attrs = [] } ])
  done;
  let s = Engine.statistics engine in
  let t = s.Engine.trigger_stats in
  let events = s.Engine.events in
  Alcotest.(check bool) "traffic ran" true (events >= lines);
  (* Budgets: a constant per event plus a one-off [n] for the
     definition-time backlog drain (every fresh rule is checked once).
     The sweep wake blows these by a factor of ~n. *)
  let budget name actual limit =
    if actual > limit then
      Alcotest.failf "%s budget exceeded: %d > %d (events=%d, rules=%d)" name
        actual limit events n
  in
  budget "trigger.probes" t.Trigger_support.probes ((2 * events) + n);
  budget "trigger.checks" t.Trigger_support.checks ((4 * events) + (2 * n));
  budget "trigger.woken" t.Trigger_support.woken ((4 * events) + (2 * n));
  Alcotest.(check int) "every create fired its rule" lines
    t.Trigger_support.fired

let test_indexed_counter_budget () =
  counter_budget (fun class_name ->
      Expr.prim (Event_type.create ~class_name))

let test_negation_counter_budget () =
  counter_budget (fun class_name ->
      Expr.conj
        (Expr.prim (Event_type.create ~class_name))
        (Expr.not_ (Expr.prim (Event_type.delete ~class_name))))

let suite =
  suite
  @ [
      Alcotest.test_case "indexed wake counter budget (CI guard)" `Quick
        test_indexed_counter_budget;
      Alcotest.test_case "negation wake counter budget (CI guard)" `Quick
        test_negation_counter_budget;
    ]

(* Condition atoms form a conjunctive query: evaluation must be
   order-independent (the planner may reorder them freely). *)
let condition_order_independent =
  Gen.qcheck ~count:200 "condition evaluation is order-independent"
    (QCheck.make ~print:(fun (n, seed) -> Printf.sprintf "perm=%d seed=%d" n seed)
       QCheck.Gen.(pair (int_range 0 720) (int_range 0 1000)))
    (fun (perm, seed) ->
      let prng = Prng.create ~seed in
      let engine = Engine.create (Domain.schema ()) in
      (* Populate some stock and events. *)
      Scenario.run_inventory_traffic prng engine ~lines:6 ~ops_per_line:3;
      let atoms =
        [
          Condition.Range { var = "S"; class_name = "stock" };
          Condition.Occurred
            { expr = Expr.I_prim Domain.create_stock; var = "S" };
          Condition.Compare
            (Query.Cmp (Query.Ge, Query.Attr ("S", "quantity"),
               Query.Const (Value.Int 0)));
          Condition.Absent
            [
              Condition.Range { var = "O"; class_name = "stockOrder" };
              Condition.Compare
                (Query.Cmp (Query.Eq, Query.Attr ("O", "stock_ref"), Query.Var "S"));
            ];
        ]
      in
      (* A permutation of the atoms chosen by the index. *)
      let rec permutations = function
        | [] -> [ [] ]
        | l ->
            List.concat_map
              (fun x ->
                List.map
                  (fun rest -> x :: rest)
                  (permutations (List.filter (fun y -> y != x) l)))
              l
      in
      let perms = permutations atoms in
      let chosen = List.nth perms (perm mod List.length perms) in
      let eb = Engine.event_base engine in
      let at = Event_base.probe_now eb in
      let env = Ts.env eb ~window:(Window.all ~upto:at) in
      let eval atoms =
        match Condition.eval (Engine.store engine) env ~at atoms with
        | Ok envs ->
            List.sort compare
              (List.filter_map
                 (fun e ->
                   match Condition.lookup e "S" with
                   | Some (Value.Oid oid) -> Some (Ident.Oid.to_int oid)
                   | _ -> None)
                 envs)
        | Error _ -> [ -1 ]
      in
      eval atoms = eval chosen)

let suite = suite @ [ condition_order_independent ]

(* ------------------------------------------ incremental lift, engine level *)

(* The Trigger Support probes instance nodes through each rule's
   incremental lift state (Lift).  These cases pin its reset and default
   behaviour where a plain recompute cannot go wrong: a state that
   survived the abort would miss the first firing, and one that ignored
   window objects without its node's types the third; the rolled-back
   block and the mid-transaction definition cover the other ways a
   window's history reaches a rule. *)

let ext name =
  match Event_type.of_string name with
  | Ok etype -> etype
  | Error msg -> Alcotest.fail msg

let ingest engine name oid =
  ok (Engine.ingest_event engine ~etype:(ext name) ~oid:(Ident.Oid.of_int oid))

(* A committed engine holding the rule [lifted] on [event] (plus [rules]),
   and a counter of [lifted]'s executions. *)
let lift_engine ?(schema = Schema.create ()) ?(rules = []) event =
  let engine = Engine.create schema in
  ignore (Engine.define_exn engine (noop_rule "lifted" event));
  List.iter (fun spec -> ignore (Engine.define_exn engine spec)) rules;
  ok (Engine.commit engine);
  let fired = ref 0 in
  Engine.set_on_execution engine (fun name ->
      if String.equal name "lifted" then incr fired);
  (engine, fired)

(* { (-=a) + c }: the abort undoes [a] on o1, and [x] on o2 and [c] on o3
   take its instants.  No object of the new window saw [a], so the rule
   fires — a state still holding o1's [a] would read the negation false. *)
let test_lift_restarts_after_abort () =
  let engine, fired =
    lift_engine
      (Expr.conj
         (Expr.Inst (Expr.I_not (Expr.I_prim (ext "a"))))
         (Expr.prim (ext "c")))
  in
  ingest engine "a" 1;
  Alcotest.(check int) "a on o1 holds the rule off" 0 !fired;
  Engine.abort engine;
  ingest engine "x" 2;
  ingest engine "c" 3;
  Alcotest.(check int) "fires once over the reissued instants" 1 !fired

(* The same shape over store events, with the undoing done by a block
   rollback: [spawn]'s action creates an item, then fails, and the whole
   action block — the item's creation with it — rolls back. *)
let test_lift_after_rolled_back_block () =
  let schema = Schema.create () in
  List.iter
    (fun name ->
      match Schema.define schema ~name ~attributes:[] () with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "schema")
    [ "item"; "go"; "other" ];
  let spawn =
    {
      (noop_rule "spawn" (Expr.prim (Event_type.create ~class_name:"go"))) with
      Rule.action =
        [
          Action.A_create { class_name = "item"; attrs = []; bind = None };
          Action.A_modify
            {
              var = "Unbound";
              attribute = "n";
              value = Query.Term (Query.Const (Value.Int 1));
            };
        ];
    }
  in
  let engine, fired =
    lift_engine ~schema ~rules:[ spawn ]
      (Expr.conj
         (Expr.Inst
            (Expr.I_not (Expr.I_prim (Event_type.create ~class_name:"item"))))
         (Expr.prim (Event_type.create ~class_name:"other")))
  in
  let create class_name = Operation.Create { class_name; attrs = [] } in
  (match Engine.execute_line engine [ create "go" ] with
  | Ok () -> Alcotest.fail "the failing action should fail the line"
  | Error _ -> ());
  let items = Object_store.extent (Engine.store engine) ~class_name:"item" in
  Alcotest.(check int) "no item survived the rollback" 0 (List.length items);
  ok (Engine.execute_line engine [ create "other" ]);
  Alcotest.(check int) "fires once after the rollback" 1 !fired

(* { a ,= -=b }: every object without [a] or [b] activates [-=b], so a
   lone [c] on o1 fires the rule — a state that tracks only objects that
   saw its node's types has no object to lift. *)
let test_lift_counts_untyped_objects () =
  let engine, fired =
    lift_engine
      (Expr.Inst
         (Expr.I_or
            (Expr.I_prim (ext "a"), Expr.I_not (Expr.I_prim (ext "b")))))
  in
  ingest engine "c" 1;
  Alcotest.(check int) "a lone c on o1 fires" 1 !fired

(* A rule defined mid-transaction starts its window at the transaction
   start: its first probe folds in the backlog of its types. *)
let test_lift_defined_over_backlog () =
  let engine = Engine.create (Schema.create ()) in
  ok (Engine.commit engine);
  let fired = ref 0 in
  Engine.set_on_execution engine (fun _ -> incr fired);
  ingest engine "a" 1;
  ingest engine "b" 1;
  ignore
    (Engine.define_exn engine
       (noop_rule "late"
          (Expr.Inst
             (Expr.i_seq (Expr.I_prim (ext "a")) (Expr.I_prim (ext "b"))))));
  ingest engine "x" 2;
  Alcotest.(check int) "fires over the backlog" 1 !fired

(* The lift counter-budget guard (runs in CI): one instance rule over a
   window of 10 and of 10,000 objects re-evaluates [ots] at most once per
   arrival of its node's types — a regression that folds the window's
   objects again at a probe, or restarts the state needlessly, blows the
   budget in proportion to the population. *)
let test_lift_counter_budget () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let updates = Obs.Metrics.counter "ts.lift_updates" in
  let run objects =
    let engine, fired =
      lift_engine
        (Expr.Inst
           (Expr.i_seq (Expr.I_prim (ext "a")) (Expr.I_prim (ext "b"))))
    in
    for oid = 1 to objects do
      ingest engine "x" oid
    done;
    (* Pairs: [a] on one object, then [b] on the same object every third
       pair (the rule fires and its window restarts) and on the next one
       otherwise (the window keeps growing). *)
    let arrivals = 400 in
    let before = Obs.Metrics.counter_value updates in
    for i = 0 to arrivals - 1 do
      let k = i / 2 in
      let shift = if i mod 2 = 1 && k mod 3 > 0 then 1 else 0 in
      ingest engine
        (if i mod 2 = 0 then "a" else "b")
        (1 + (((k * 7919) + shift) mod objects))
    done;
    let n = Obs.Metrics.counter_value updates - before in
    if n > arrivals then
      Alcotest.failf "ts.lift_updates budget exceeded over %d objects: %d > %d"
        objects n arrivals;
    Alcotest.(check bool)
      (Printf.sprintf "the state folded arrivals in (%d objects)" objects)
      true (n > 0);
    Alcotest.(check bool)
      (Printf.sprintf "the rule fired (%d objects)" objects)
      true (!fired > 0)
  in
  run 10;
  run 10_000

(* Firings the V(E) filter must not lose: one rule per expression, each
   driven through a trace whose firing arrival has a type Fig. 6 as
   printed gives no positive variation — two traces for [<] with a
   negated first operand, one for each kind of instance node a fresh
   object flips.  Under both detection modes the production path (indexed
   wake, optimizer on) fires as often as the sweep with the optimizer
   off, which consults no V(E) at all. *)
let test_vexpr_keeps_firings () =
  let line engine ops = ok (Engine.execute_line engine ops) in
  let stock engine =
    Object_store.extent (Engine.store engine) ~class_name:"stock"
  in
  let modify oid =
    Operation.Modify { oid; attribute = "quantity"; value = Value.Int 1 }
  in
  let new_stock () =
    Domain.new_stock ~quantity:5 ~maxquantity:10 ~minquantity:0
  in
  let cases =
    [
      (* A new a after a d deactivates -d < a. *)
      ( "-(-d < a , -(c < c))",
        fun engine ->
          ingest engine "a" 1;
          ingest engine "c" 1;
          ingest engine "d" 1;
          ingest engine "a" 1 );
      (* A create and a modify in one line leave the rule off; the delete
         pulls (create , -delete) back to the create's stamp, before the
         modify. *)
      ( "(-modify(stock) + create(stock)) < (create(stock) , -delete(stock))",
        fun engine ->
          line engine [ new_stock () ];
          ok (Engine.commit engine);
          let oid = List.hd (stock engine) in
          line engine [ new_stock (); modify oid ];
          line engine [ Operation.Delete { oid } ] );
      (* o2 has neither b nor a. *)
      ( "(-=b += -=a) + b",
        fun engine ->
          ingest engine "b" 1;
          ingest engine "c" 2 );
      (* o2 has no a, so the min-lift of -=a turns negative. *)
      ( "-(-=(-=a)) + a",
        fun engine ->
          ingest engine "a" 1;
          ingest engine "c" 2 );
    ]
  in
  List.iter
    (fun (src, drive) ->
      List.iter
        (fun (mode, detection) ->
          let fired trigger =
            let config = { Engine.default_config with Engine.trigger } in
            let engine = Engine.create ~config (Domain.schema ()) in
            ignore
              (Engine.define_exn engine
                 (noop_rule "r" (Expr_parse.parse_exn src)));
            ok (Engine.commit engine);
            let fired = ref 0 in
            Engine.set_on_execution engine (fun _ -> incr fired);
            drive engine;
            !fired
          in
          let off =
            fired
              {
                Trigger_support.detection;
                optimizer = false;
                wake = Trigger_support.Sweep;
              }
          in
          Alcotest.(check bool) (Printf.sprintf "%s fires (%s)" src mode) true
            (off > 0);
          Alcotest.(check int)
            (Printf.sprintf "%s: optimizer on = off (%s)" src mode)
            off
            (fired { Trigger_support.default_config with detection }))
        [
          ("exact", Trigger_support.Exact);
          ("endpoint", Trigger_support.Endpoint);
        ])
    cases

let suite =
  suite
  @ [
      Alcotest.test_case "V(E) keeps negation rules' firings" `Quick
        test_vexpr_keeps_firings;
      Alcotest.test_case "lift state restarts after an abort" `Quick
        test_lift_restarts_after_abort;
      Alcotest.test_case "lift state after a rolled-back action block" `Quick
        test_lift_after_rolled_back_block;
      Alcotest.test_case "lift counts objects without its types" `Quick
        test_lift_counts_untyped_objects;
      Alcotest.test_case "lift over a mid-transaction definition's backlog"
        `Quick test_lift_defined_over_backlog;
      Alcotest.test_case "lift counter budget (CI guard)" `Quick
        test_lift_counter_budget;
    ]
