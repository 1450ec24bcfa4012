(* Second engine suite: migration events (generalize/specialize), timer
   state across transactions, preserving-rule lifetimes, mid-transaction
   rule definition, and the affected-oid reporting used by scripts. *)

open Core

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.failf "engine error: %a" Engine.pp_error e

let hierarchy_schema () =
  let s = Schema.create () in
  let define name ?super attributes =
    match Schema.define s ~name ?super ~attributes () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "schema: %a" Schema.pp_error e
  in
  define "item" [ ("name", Value.T_str) ];
  define "perishable" ~super:"item" [ ("shelf_days", Value.T_int) ];
  define "log" [ ("tag", Value.T_str) ];
  s

let log_rule name event =
  {
    Rule.name;
    target = None;
    event = Expr_parse.parse_exn event;
    condition = [];
    action =
      [
        Action.A_create
          {
            class_name = "log";
            attrs = [ ("tag", Query.Term (Query.Const (Value.Str name))) ];
            bind = None;
          };
      ];
    coupling = Rule.Immediate;
    consumption = Rule.Consuming;
    priority = 0;
  }

let tags engine =
  List.filter_map
    (fun oid ->
      match Object_store.get (Engine.store engine) oid ~attribute:"tag" with
      | Ok (Value.Str s) -> Some s
      | _ -> None)
    (Object_store.extent (Engine.store engine) ~class_name:"log")

let test_migration_events_trigger () =
  let engine = Engine.create (hierarchy_schema ()) in
  let _ = Engine.define_exn engine (log_rule "gen" "generalize(item)") in
  let _ = Engine.define_exn engine (log_rule "spec" "specialize(perishable)") in
  let oids =
    ok
      (Engine.execute_line_affected engine
         [
           Operation.Create
             {
               class_name = "perishable";
               attrs = [ ("name", Value.Str "milk") ];
             };
         ])
  in
  let milk = match oids with [ Some oid ] -> oid | _ -> Alcotest.fail "oid" in
  ok (Engine.execute_line engine [ Operation.Generalize { oid = milk; to_class = "item" } ]);
  Alcotest.(check (list string)) "generalize logged" [ "gen" ] (tags engine);
  ok
    (Engine.execute_line engine
       [ Operation.Specialize { oid = milk; to_class = "perishable" } ]);
  Alcotest.(check (list string)) "specialize logged" [ "gen"; "spec" ]
    (tags engine)

let test_affected_oids_reported () =
  let engine = Engine.create (hierarchy_schema ()) in
  let oids =
    ok
      (Engine.execute_line_affected engine
         [
           Operation.Create { class_name = "item"; attrs = [] };
           Operation.Create { class_name = "item"; attrs = [] };
         ])
  in
  match oids with
  | [ Some a; Some b ] ->
      Alcotest.(check bool) "distinct oids" true (not (Ident.Oid.equal a b))
  | _ -> Alcotest.fail "expected two affected oids"

let test_timer_survives_commit () =
  let engine = Engine.create (hierarchy_schema ()) in
  let tick = Engine.define_timer engine ~name:"t" ~period_lines:3 in
  let _ = Engine.define_exn engine (log_rule "tick" (Expr.to_string (Expr.prim tick))) in
  (* Two lines, then a commit: the countdown (1 remaining) must carry into
     the next transaction, so the tick fires on the first line after it. *)
  ok (Engine.execute_line engine []);
  ok (Engine.execute_line engine []);
  ok (Engine.commit engine);
  Alcotest.(check (list string)) "no tick yet" [] (tags engine);
  ok (Engine.execute_line engine []);
  Alcotest.(check (list string)) "tick after commit" [ "tick" ] (tags engine)

let test_preserving_window_semantics () =
  (* Triggering always consumes (events before a consideration lose the
     capability of triggering, Section 2/4.4); the consumption mode only
     widens the condition's event formulas.  A preserving rule considered
     once does not re-fire on unrelated noise, but when a NEW creation
     re-triggers it, occurred() binds every creation since transaction
     start — so the second execution logs two tags at once. *)
  let spec =
    {
      Rule.name = "p";
      target = None;
      event = Expr_parse.parse_exn "create(item)";
      condition =
        [
          Condition.Occurred
            { expr = Expr_parse.parse_inst_exn "create(item)"; var = "X" };
        ];
      action =
        [
          Action.A_create
            {
              class_name = "log";
              attrs = [ ("tag", Query.Term (Query.Const (Value.Str "p"))) ];
              bind = None;
            };
        ];
      coupling = Rule.Immediate;
      consumption = Rule.Preserving;
      priority = 0;
    }
  in
  let engine = Engine.create (hierarchy_schema ()) in
  let _ = Engine.define_exn engine spec in
  ok
    (Engine.execute_line engine
       [ Operation.Create { class_name = "item"; attrs = [] } ]);
  Alcotest.(check int) "one binding on first firing" 1
    (List.length (List.filter (String.equal "p") (tags engine)));
  (* Unrelated noise: old events no longer trigger. *)
  ok
    (Engine.execute_line engine
       [ Operation.Create { class_name = "log"; attrs = [ ("tag", Value.Str "noise") ] } ]);
  Alcotest.(check int) "no re-firing on noise" 1
    (List.length (List.filter (String.equal "p") (tags engine)));
  (* A second creation re-triggers; the preserving formula window binds
     BOTH items, so the set-oriented execution logs two more tags. *)
  ok
    (Engine.execute_line engine
       [ Operation.Create { class_name = "item"; attrs = [] } ]);
  Alcotest.(check int) "second firing binds both creations" 3
    (List.length (List.filter (String.equal "p") (tags engine)));
  (* After commit the transaction window restarts: a fresh creation binds
     only itself. *)
  ok (Engine.commit engine);
  ok
    (Engine.execute_line engine
       [ Operation.Create { class_name = "item"; attrs = [] } ]);
  Alcotest.(check int) "fresh transaction binds only the new creation" 4
    (List.length (List.filter (String.equal "p") (tags engine)))

let test_rule_defined_mid_transaction () =
  (* A rule defined mid-transaction sees the events since the transaction
     start (its windows are anchored at tx_start). *)
  let engine = Engine.create (hierarchy_schema ()) in
  ok
    (Engine.execute_line engine
       [ Operation.Create { class_name = "item"; attrs = [] } ]);
  let _ = Engine.define_exn engine (log_rule "late" "create(item)") in
  (* Any further activity lets the trigger support notice the old event. *)
  ok
    (Engine.execute_line engine
       [ Operation.Create { class_name = "log"; attrs = [ ("tag", Value.Str "noise") ] } ]);
  Alcotest.(check bool) "late rule fired on the earlier creation" true
    (List.mem "late" (tags engine))

let test_remove_rule_stops_firing () =
  let engine = Engine.create (hierarchy_schema ()) in
  let _ = Engine.define_exn engine (log_rule "r" "create(item)") in
  ok
    (Engine.execute_line engine
       [ Operation.Create { class_name = "item"; attrs = [] } ]);
  Alcotest.(check int) "fired once" 1
    (List.length (List.filter (String.equal "r") (tags engine)));
  (match Rule_table.remove (Engine.rules engine) "r" with
  | Ok () -> ()
  | Error (`Rule_error msg) -> Alcotest.fail msg);
  ok
    (Engine.execute_line engine
       [ Operation.Create { class_name = "item"; attrs = [] } ]);
  Alcotest.(check int) "silent after removal" 1
    (List.length (List.filter (String.equal "r") (tags engine)))

(* A failing rule cascade after [ingest_event] rolls back only the failing
   action's block: the occurrence stays recorded, as a failing
   [execute_line] leaves its operations applied, and [abort] removes it. *)
let test_ingest_error_keeps_occurrence () =
  let engine = Engine.create (hierarchy_schema ()) in
  let failing =
    {
      (log_rule "failing" "go") with
      Rule.action =
        [
          Action.A_modify
            {
              var = "Unbound";
              attribute = "tag";
              value = Query.Term (Query.Const (Value.Str "x"));
            };
        ];
    }
  in
  ignore (Engine.define_exn engine failing);
  ok (Engine.commit engine);
  let go =
    match Event_type.of_string "go" with
    | Ok etype -> etype
    | Error msg -> Alcotest.fail msg
  in
  let recorded () =
    List.length
      (List.filter
         (fun occ -> Event_type.equal (Occurrence.etype occ) go)
         (Event_base.to_list (Engine.event_base engine)))
  in
  (match Engine.ingest_event engine ~etype:go ~oid:(Ident.Oid.of_int 1) with
  | Ok () -> Alcotest.fail "the failing action should fail the ingest"
  | Error _ -> ());
  Alcotest.(check int) "the occurrence stays recorded" 1 (recorded ());
  Engine.abort engine;
  Alcotest.(check int) "abort removes it" 0 (recorded ())

let suite =
  [
    Alcotest.test_case "migration events trigger rules" `Quick
      test_migration_events_trigger;
    Alcotest.test_case "affected oids reported" `Quick
      test_affected_oids_reported;
    Alcotest.test_case "timer countdown survives commit" `Quick
      test_timer_survives_commit;
    Alcotest.test_case "preserving windows (formulas, not triggering)" `Quick
      test_preserving_window_semantics;
    Alcotest.test_case "rule defined mid-transaction" `Quick
      test_rule_defined_mid_transaction;
    Alcotest.test_case "removing a rule stops it" `Quick
      test_remove_rule_stops_firing;
    Alcotest.test_case "a failing cascade keeps the ingested occurrence"
      `Quick test_ingest_error_keeps_occurrence;
  ]
