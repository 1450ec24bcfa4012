(* The differential harness: the first consumer of the obs layer.

   Seeded random scenarios from the workload generator run the same
   expressions and the same event stream through four independent
   detection engines —

     ts          the engine's evaluator (plain Section-4 ts)
     naive       full recompute after every event
     tree        Snoop-style incremental operator tree
     automaton   Ode-style lazy DFA

   — and every engine must report the same activation verdict for every
   expression after every event.  The expressions come from the regular
   profile (negation- and instance-free), the fragment all four support.

   The harness runs with obs enabled and afterwards asserts from the
   metrics registry that every engine actually ran: a differential test
   that silently stopped exercising one of them would otherwise keep
   passing. *)

open Core

(* ts of [e] at [at] over the window (after, at] — the value the engine's
   Trigger Support computes for a rule whose window starts at [after]. *)
let ts_over eb ~after ~at e =
  Ts.ts (Ts.env eb ~window:(Window.make ~after ~upto:at)) ~at e

let active_over eb ~after ~at e = ts_over eb ~after ~at e > 0

let scenarios = 120

(* One scenario: expressions, stream and engines all derived from the
   seed.  Returns the number of verdict comparisons made. *)
let run_scenario ~seed =
  let prng = Prng.create ~seed in
  let alphabet = Domain.abstract_alphabet (2 + (seed mod 3)) in
  let nexprs = 1 + (seed mod 3) in
  let depth = 1 + (seed mod 4) in
  let exprs =
    List.init nexprs (fun _ ->
        Expr_gen.gen prng ~profile:Expr_gen.regular_profile ~alphabet ~depth ())
  in
  let objects = 1 + (seed mod 4) in
  let stream = Expr_gen.stream prng ~alphabet ~objects ~length:40 in
  (* The engine's evaluation path: plain ts over the growing log. *)
  let eb = Event_base.create () in
  let naive = Naive.create exprs in
  let trees = List.map Tree_detector.create exprs in
  let automata = List.map Automaton.create exprs in
  let comparisons = ref 0 in
  List.iteri
    (fun step (etype, oid) ->
      let occ = Event_base.record eb ~etype ~oid in
      Naive.on_event naive ~etype ~oid;
      List.iter
        (fun tree ->
          Tree_detector.on_event tree ~etype
            ~timestamp:(Occurrence.timestamp occ))
        trees;
      List.iter (fun a -> Automaton.on_event a ~etype) automata;
      let at = Event_base.probe_now eb in
      List.iteri
        (fun i (expr, (tree, automaton)) ->
          let ts_verdict = active_over eb ~after:Time.origin ~at expr in
          let naive_verdict = Naive.active naive i in
          let tree_verdict = Tree_detector.active tree in
          let automaton_verdict = Automaton.active automaton in
          incr comparisons;
          if
            not
              (ts_verdict = naive_verdict
              && ts_verdict = tree_verdict
              && ts_verdict = automaton_verdict)
          then
            Alcotest.failf
              "seed %d step %d expr %s: ts=%b naive=%b tree=%b automaton=%b"
              seed step (Expr.to_string expr) ts_verdict naive_verdict
              tree_verdict automaton_verdict)
        (List.combine exprs (List.combine trees automata)))
    stream;
  !comparisons

let test_verdicts_agree () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false)
  @@ fun () ->
  let total = ref 0 in
  for i = 0 to scenarios - 1 do
    total := !total + run_scenario ~seed:(1000 + i)
  done;
  (* Every scenario compared something on every event. *)
  Alcotest.(check bool)
    (Printf.sprintf "substantial comparison volume (%d)" !total)
    true
    (!total >= scenarios * 40);
  (* The evaluator really ran: the registry's ts evaluation counter moved
     during the run. *)
  let snap = Obs.snapshot () in
  let evals =
    match List.assoc_opt "ts.evals" snap.Obs.counters with
    | Some n -> n
    | None -> Alcotest.fail "ts.evals counter not registered"
  in
  Alcotest.(check bool)
    (Printf.sprintf "ts eval count > 0 (got %d)" evals)
    true (evals > 0);
  (* ... and the baselines really ran too. *)
  List.iter
    (fun name ->
      match List.assoc_opt name snap.Obs.counters with
      | Some n when n > 0 -> ()
      | Some 0 -> Alcotest.failf "%s never moved" name
      | _ -> Alcotest.failf "%s not registered" name)
    [
      "baseline.naive.evals";
      "baseline.tree.activations";
      "baseline.automaton.transitions";
    ]

(* The same engines under consumption: restarting every engine at a
   mid-stream instant (fresh window lower bound vs detector reset) keeps
   the verdicts aligned — ts with a moved [after] bound against baselines
   reset and replayed from that point. *)
let test_verdicts_agree_after_restart () =
  let failures = ref 0 in
  for i = 0 to 39 do
    let seed = 5000 + i in
    let prng = Prng.create ~seed in
    let alphabet = Domain.abstract_alphabet 3 in
    let expr =
      Expr_gen.gen prng ~profile:Expr_gen.regular_profile ~alphabet ~depth:3 ()
    in
    let stream = Expr_gen.stream prng ~alphabet ~objects:2 ~length:30 in
    let cut = 10 + (seed mod 10) in
    let eb = Event_base.create () in
    (* Feed the prefix, then restart detection at the cut instant. *)
    List.iteri
      (fun step (etype, oid) ->
        if step < cut then ignore (Event_base.record eb ~etype ~oid))
      stream;
    let after = Event_base.probe_now eb in
    let tree = Tree_detector.create expr in
    let automaton = Automaton.create expr in
    List.iteri
      (fun step (etype, oid) ->
        if step >= cut then begin
          let occ = Event_base.record eb ~etype ~oid in
          Tree_detector.on_event tree ~etype
            ~timestamp:(Occurrence.timestamp occ);
          Automaton.on_event automaton ~etype;
          let at = Event_base.probe_now eb in
          let ts_verdict = active_over eb ~after ~at expr in
          if
            not
              (ts_verdict = Tree_detector.active tree
              && ts_verdict = Automaton.active automaton)
          then begin
            incr failures;
            Alcotest.failf
              "seed %d step %d expr %s: ts=%b tree=%b automaton=%b" seed
              step (Expr.to_string expr) ts_verdict
              (Tree_detector.active tree)
              (Automaton.active automaton)
          end
        end)
      stream
  done;
  Alcotest.(check int) "no disagreements" 0 !failures

(* ------------------------------------------- wake-mode differential *)

(* The indexed wake (subscription table + dirty-set drain) against the
   per-block sweep, at full engine level: the same seeded rules and the
   same operation history through two engines differing only in
   [Trigger_support.wake] must show identical rule behaviour after every
   line — same considerations, executions, firings and recorded events —
   and identical ts values for every rule expression at the end.  The
   160 seeds reuse the two seed ranges above; the second range commits
   mid-stream so the dirty set also survives a window restart. *)

let wake_rule name event =
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

(* Abstract alphabet types mapped onto store events the engine can
   actually generate (same trick as the trigger suite). *)
let to_domain =
  Expr.map_primitives (fun p ->
      match Event_type.to_string p with
      | "evA(obj)" -> Domain.create_stock
      | "evB(obj)" -> Domain.modify_stock_quantity
      | _ -> Domain.delete_stock)

let wake_engine ~wake exprs =
  let config =
    {
      Engine.default_config with
      Engine.trigger =
        { Trigger_support.default_config with Trigger_support.wake };
    }
  in
  let engine = Engine.create ~config (Domain.schema ()) in
  List.iteri
    (fun i e ->
      match Engine.define engine (wake_rule (Printf.sprintf "r%d" i) e) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "define: %a" Engine.pp_error e)
    exprs;
  engine

let wake_step engine (kind, idx) =
  let live = Object_store.extent (Engine.store engine) ~class_name:"stock" in
  let op =
    match (kind, live) with
    | 0, _ | _, [] ->
        Domain.new_stock ~quantity:(10 + idx) ~maxquantity:100 ~minquantity:0
    | 1, l ->
        Operation.Modify
          {
            oid = List.nth l (idx mod List.length l);
            attribute = "quantity";
            value = Value.Int idx;
          }
    | _, l -> Operation.Delete { oid = List.nth l (idx mod List.length l) }
  in
  match Engine.execute_line engine [ op ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "line: %a" Engine.pp_error e

let wake_fingerprint engine =
  let s = Engine.statistics engine in
  ( s.Engine.considerations,
    s.Engine.executions,
    s.Engine.events,
    s.Engine.trigger_stats.Trigger_support.fired )

let run_wake_scenario ~seed ~commit_at =
  let prng = Prng.create ~seed in
  let alphabet = Domain.abstract_alphabet 3 in
  let nexprs = 1 + (seed mod 4) in
  let exprs =
    List.init nexprs (fun _ ->
        to_domain
          (Expr_gen.gen prng ~profile:Expr_gen.boolean_profile ~alphabet
             ~depth:(1 + (seed mod 4)) ()))
  in
  let history =
    List.init 25 (fun _ ->
        (Prng.next_int prng ~bound:3, Prng.next_int prng ~bound:8))
  in
  let sweep = wake_engine ~wake:Trigger_support.Sweep exprs in
  let indexed = wake_engine ~wake:Trigger_support.Indexed exprs in
  List.iteri
    (fun step opspec ->
      wake_step sweep opspec;
      wake_step indexed opspec;
      (match commit_at with
      | Some cut when step = cut ->
          let ok = function
            | Ok () -> ()
            | Error e -> Alcotest.failf "commit: %a" Engine.pp_error e
          in
          ok (Engine.commit sweep);
          ok (Engine.commit indexed)
      | _ -> ());
      if wake_fingerprint sweep <> wake_fingerprint indexed then
        let c, x, v, f = wake_fingerprint sweep
        and c', x', v', f' = wake_fingerprint indexed in
        Alcotest.failf
          "seed %d step %d: sweep cons=%d exec=%d events=%d fired=%d vs \
           indexed cons=%d exec=%d events=%d fired=%d"
          seed step c x v f c' x' v' f')
    history;
  (* ts agreement: the two engines' logs — each driven through a
     different probe schedule — must give every rule expression the same
     activation timestamp at the end. *)
  let at = Event_base.probe_now (Engine.event_base sweep) in
  List.iter
    (fun e ->
      let a = ts_over (Engine.event_base sweep) ~after:Time.origin ~at e in
      let b = ts_over (Engine.event_base indexed) ~after:Time.origin ~at e in
      if a <> b then
        Alcotest.failf "seed %d expr %s: ts sweep=%d indexed=%d" seed
          (Expr.to_string e) a b)
    exprs

let test_wake_modes_agree () =
  for i = 0 to scenarios - 1 do
    run_wake_scenario ~seed:(1000 + i) ~commit_at:None
  done;
  for i = 0 to 39 do
    let seed = 5000 + i in
    run_wake_scenario ~seed ~commit_at:(Some (10 + (seed mod 10)))
  done

(* -------------------------------- windowed ≡ unwindowed differential *)

(* Sliding-window retirement must be invisible: the same seeded rules and
   operation history through a windowed engine (retirement after every
   single line — maximal pressure) and an unwindowed twin (retirement and
   compaction both off, the log grows forever) must show identical rule
   behaviour after every line, identical live-window event-base queries
   at every step, and identical ts values at the end.  The second seed
   range commits and aborts mid-stream, so retirement also survives
   window restarts and the truncation path (aborting with per-type
   horizons advanced past the transaction start). *)

let window_engine ~windowed exprs =
  let config =
    if windowed then
      {
        Engine.default_config with
        Engine.compact_at_commit = None;
        window_events = true;
        retire_in_tx = Some 1;
      }
    else
      {
        Engine.default_config with
        Engine.compact_at_commit = None;
        window_events = false;
        retire_in_tx = None;
      }
  in
  let engine = Engine.create ~config (Domain.schema ()) in
  List.iteri
    (fun i e ->
      match Engine.define engine (wake_rule (Printf.sprintf "r%d" i) e) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "define: %a" Engine.pp_error e)
    exprs;
  engine

let window_fingerprint engine =
  let s = Engine.statistics engine in
  ( s.Engine.lines,
    s.Engine.blocks,
    s.Engine.considerations,
    s.Engine.executions,
    s.Engine.operations,
    s.Engine.events,
    s.Engine.trigger_stats.Trigger_support.fired )

let domain_types =
  [ Domain.create_stock; Domain.modify_stock_quantity; Domain.delete_stock ]

(* Live-window agreement: every query the windowed engine can still
   answer exactly (above its horizons) must match the unwindowed log. *)
let check_window_queries ~seed ~step windowed plain =
  let web = Engine.event_base windowed and peb = Engine.event_base plain in
  let now = Event_base.now web in
  if now <> Event_base.now peb then
    Alcotest.failf "seed %d step %d: clocks diverged (%d vs %d)" seed step
      (Time.to_int now)
      (Time.to_int (Event_base.now peb));
  let h = Event_base.horizon web in
  if Time.( <= ) h now then begin
    let live = Window.make ~after:h ~upto:now in
    if
      Event_base.timestamps_in web ~window:live
      <> Event_base.timestamps_in peb ~window:live
    then
      Alcotest.failf "seed %d step %d: timestamps_in diverged above horizon %d"
        seed step (Time.to_int h);
    if
      Event_base.oids_in web ~window:live ~at:now
      <> Event_base.oids_in peb ~window:live ~at:now
    then Alcotest.failf "seed %d step %d: oids_in diverged" seed step
  end;
  List.iter
    (fun etype ->
      (* Type-restricted probes are exact from the type horizon up. *)
      let th = Event_base.type_horizon web etype in
      (match
         ( Event_base.newest_of_type web ~etype,
           Event_base.newest_of_type peb ~etype )
       with
      | Some a, Some b when a = b -> ()
      | None, None -> ()
      | None, Some b when Time.( <= ) b th ->
          (* The type's whole posting list retired: the lost answer sits
             at or below the advertised horizon — the exactness
             contract, not a divergence. *)
          ()
      | _ ->
          Alcotest.failf "seed %d step %d: newest_of_type %s diverged" seed
            step
            (Event_type.to_string etype));
      (* A horizon one past the clock (windows restart at the next
         instant) leaves an empty exact range — nothing to compare. *)
      if Time.( <= ) th now then begin
        if
          Event_base.timestamps_of_types_in web ~types:[ etype ] ~after:th
            ~upto:now
          <> Event_base.timestamps_of_types_in peb ~types:[ etype ] ~after:th
               ~upto:now
        then
          Alcotest.failf
            "seed %d step %d: posting probe for %s diverged above horizon %d"
            seed step (Event_type.to_string etype) (Time.to_int th);
        let tw = Window.make ~after:th ~upto:now in
        if
          Event_base.last_of_type web ~etype ~window:tw ~at:now
          <> Event_base.last_of_type peb ~etype ~window:tw ~at:now
        then
          Alcotest.failf "seed %d step %d: last_of_type %s diverged" seed step
            (Event_type.to_string etype)
      end)
    domain_types

let run_window_scenario ~seed ~commit_at ~abort_at =
  let prng = Prng.create ~seed in
  let alphabet = Domain.abstract_alphabet 3 in
  let nexprs = 1 + (seed mod 4) in
  let exprs =
    List.init nexprs (fun _ ->
        to_domain
          (Expr_gen.gen prng ~profile:Expr_gen.boolean_profile ~alphabet
             ~depth:(1 + (seed mod 4)) ()))
  in
  let history =
    List.init 25 (fun _ ->
        (Prng.next_int prng ~bound:3, Prng.next_int prng ~bound:8))
  in
  let plain = window_engine ~windowed:false exprs in
  let windowed = window_engine ~windowed:true exprs in
  List.iteri
    (fun step opspec ->
      wake_step plain opspec;
      wake_step windowed opspec;
      (match commit_at with
      | Some cut when step = cut ->
          let ok = function
            | Ok () -> ()
            | Error e -> Alcotest.failf "commit: %a" Engine.pp_error e
          in
          ok (Engine.commit plain);
          ok (Engine.commit windowed)
      | _ -> ());
      (match abort_at with
      | Some cut when step = cut ->
          Engine.abort plain;
          Engine.abort windowed
      | _ -> ());
      if window_fingerprint plain <> window_fingerprint windowed then
        let l, b, c, x, o, v, f = window_fingerprint plain
        and l', b', c', x', o', v', f' = window_fingerprint windowed in
        Alcotest.failf
          "seed %d step %d: plain lines=%d blocks=%d cons=%d exec=%d ops=%d \
           events=%d fired=%d vs windowed lines=%d blocks=%d cons=%d \
           exec=%d ops=%d events=%d fired=%d"
          seed step l b c x o v f l' b' c' x' o' v' f'
      else check_window_queries ~seed ~step windowed plain)
    history;
  (* The windowed engine really retired something, or the scenario is not
     exercising the machinery (every line triggers retirement, so the
     only legitimate zero is an empty history). *)
  (if Event_base.horizon (Engine.event_base windowed) = Time.origin then
     let s = Engine.statistics windowed in
     if s.Engine.events > 2 && abort_at = None then
       Alcotest.failf "seed %d: windowed engine never retired (%d events)"
         seed s.Engine.events);
  (* ts agreement over every rule's actual window: retirement is exact
     from each rule's formula window start up (consuming rules advance
     theirs as they fire), and both engines must agree on where that
     window starts and what ts says inside it. *)
  let at = Event_base.probe_now (Engine.event_base plain) in
  let tx_start = Engine.tx_start plain in
  if tx_start <> Engine.tx_start windowed then
    Alcotest.failf "seed %d: tx_start diverged" seed;
  List.iteri
    (fun i e ->
      let name = Printf.sprintf "r%d" i in
      (* An abort drops rules defined in the rolled-back transaction — in
         both twins alike; the clamp horizon for a ruleless type is the
         transaction start. *)
      let window_start engine =
        match Rule_table.find (Engine.rules engine) name with
        | Some rule -> Some (Rule.formula_window_start rule ~tx_start)
        | None -> None
      in
      let after =
        match (window_start plain, window_start windowed) with
        | Some a, Some b when a = b -> a
        | None, None -> tx_start
        | _ -> Alcotest.failf "seed %d rule %s: window starts diverged" seed name
      in
      let a = ts_over (Engine.event_base plain) ~after ~at e in
      let b = ts_over (Engine.event_base windowed) ~after ~at e in
      if a <> b then
        Alcotest.failf "seed %d expr %s: ts plain=%d windowed=%d" seed
          (Expr.to_string e) a b)
    exprs

let test_windowed_agrees () =
  for i = 0 to scenarios - 1 do
    run_window_scenario ~seed:(2000 + i) ~commit_at:None ~abort_at:None
  done;
  for i = 0 to 19 do
    let seed = 6000 + i in
    run_window_scenario ~seed
      ~commit_at:(Some (8 + (seed mod 8)))
      ~abort_at:None
  done;
  for i = 0 to 19 do
    let seed = 7000 + i in
    run_window_scenario ~seed ~commit_at:None
      ~abort_at:(Some (8 + (seed mod 8)))
  done

let suite =
  [
    ( Printf.sprintf "%d scenarios x 4 engines agree" scenarios,
      `Quick,
      test_verdicts_agree );
    ("windowed restart keeps agreement", `Quick, test_verdicts_agree_after_restart);
    ( Printf.sprintf "%d scenarios: sweep wake = indexed wake" (scenarios + 40),
      `Quick,
      test_wake_modes_agree );
    ( Printf.sprintf "%d scenarios: windowed = unwindowed" (scenarios + 40),
      `Quick,
      test_windowed_agrees );
  ]
