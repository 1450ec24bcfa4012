(* Aggregates every test suite; run with [dune runtest]. *)

let () =
  Alcotest.run "chimera-composite-events"
    [
      ("util", Suite_util.suite);
      ("event", Suite_event.suite);
      ("expr", Suite_expr.suite);
      ("ts-walkthroughs", Suite_ts.suite);
      ("event-formulas", Suite_formulas.suite);
      ("prose-examples", Suite_prose.suite);
      ("laws", Suite_laws.suite);
      ("optimizer", Suite_optimizer.suite);
      ("store", Suite_store.suite);
      ("store-model", Suite_store_model.suite);
      ("trigger-support", Suite_trigger.suite);
      ("engine", Suite_engine.suite);
      ("engine-lifecycle", Suite_engine2.suite);
      ("baselines", Suite_baseline.suite);
      ("lang", Suite_lang.suite);
      ("extensions", Suite_extensions.suite);
      ("derived-operators", Suite_derived.suite);
      ("persistence", Suite_persistence.suite);
      ("recovery", Suite_recovery.suite);
      ("bounded", Suite_bounded.suite);
      ("edge-cases", Suite_edge.suite);
      ("lang-extensions", Suite_lang2.suite);
      ("workload", Suite_workload.suite);
      ("obs", Suite_obs.suite);
      ("differential", Suite_differential.suite);
      ("roundtrip", Suite_roundtrip.suite);
      ("server", Suite_server.suite);
      ("repl", Suite_repl.suite);
    ]
