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
   preserving.  Same rules, same traffic, identical consideration counts —
   only the number of ts recomputations differs. *)
let optimizer_transparent =
  Gen.qcheck ~count:150 "V(E) filtering never changes rule behaviour"
    arb_workload
    (fun w ->
      let with_opt = run_config Trigger_support.Exact true w in
      let without = run_config Trigger_support.Exact false w in
      let a = Engine.statistics with_opt and b = Engine.statistics without in
      a.Engine.considerations = b.Engine.considerations
      && a.Engine.trigger_stats.Trigger_support.fired
         = b.Engine.trigger_stats.Trigger_support.fired)

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

(* The counter-budget guard (runs in CI via `dune runtest`): under the
   indexed wake, per-event trigger work must stay flat as the rule set
   widens — a regression that reintroduces any O(rules)-per-event cost
   into the wake path blows these budgets and fails the build.  The
   scenario is the E11 shape in miniature: [n] rules over disjoint event
   types, round-robin creates, so exactly one rule is relevant per
   line. *)
let test_indexed_counter_budget () =
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
         (noop_rule
            (Printf.sprintf "b%d" i)
            (Expr.prim (Event_type.create ~class_name:(class_name i)))))
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
  budget "trigger.woken" t.Trigger_support.woken ((4 * events) + (2 * n))

let suite =
  suite
  @ [
      Alcotest.test_case "indexed wake counter budget (CI guard)" `Quick
        test_indexed_counter_budget;
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
