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

(* The production trigger path — indexed wake, V(E) on — and the sweep
   with V(E) on, against the plainest one: the per-block sweep with the
   optimizer off, which evaluates every rule after every block and shares
   no V(E) code with what it checks.  Each seed runs under both detection
   modes, over full-profile rules (instance operators and min-lifts),
   consuming and preserving, some of whose actions create a fresh object.
   The traffic mixes ingested external events over four types and six
   objects (one type no rule mentions) with multi-op store lines, commits
   and aborts.  After every step each checked engine must have executed
   the same rules in the same order as the oracle and agree with it on the
   step's outcome, considerations, executions, events and firings; at the
   end, every rule expression must have the same ts over their logs.  The
   second seed range commits and aborts four times as often. *)

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

let define_all engine specs =
  List.iter
    (fun spec ->
      match Engine.define engine spec with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "define: %a" Engine.pp_error e)
    specs

let wake_engine exprs =
  let engine = Engine.create (Domain.schema ()) in
  define_all engine
    (List.mapi (fun i e -> wake_rule (Printf.sprintf "r%d" i) e) exprs);
  engine

(* [kind]: 0 creates, 1 modifies the quantity, 2 deletes, 3 modifies the
   minquantity (an event only the unqualified modify matches). *)
let stock_op engine (kind, idx) =
  let live = Object_store.extent (Engine.store engine) ~class_name:"stock" in
  let pick l = List.nth l (idx mod List.length l) in
  match (kind, live) with
  | 0, _ | _, [] ->
      Domain.new_stock ~quantity:(10 + idx) ~maxquantity:100 ~minquantity:0
  | 1, l ->
      Operation.Modify
        { oid = pick l; attribute = "quantity"; value = Value.Int idx }
  | 3, l ->
      Operation.Modify
        { oid = pick l; attribute = "minquantity"; value = Value.Int idx }
  | _, l -> Operation.Delete { oid = pick l }

let wake_step engine opspec =
  match Engine.execute_line engine [ stock_op engine opspec ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "line: %a" Engine.pp_error e

let ingested = Array.of_list (Domain.abstract_alphabet 4)

(* The rules' alphabet: three of the four ingested types and the stock
   events, the unqualified modify among them. *)
let wake_alphabet =
  [
    ingested.(0);
    ingested.(1);
    ingested.(2);
    Domain.create_stock;
    Domain.modify_stock_quantity;
    Event_type.modify ~class_name:"stock" ();
    Domain.delete_stock;
  ]

let spawn_show =
  [ Action.A_create { class_name = "show"; attrs = []; bind = None } ]

type wake_step =
  | Ingest of int * int  (** type index, oid *)
  | Line of (int * int) list  (** stock ops, resolved per engine *)
  | Commit
  | Abort

let gen_wake_step prng ~tx_bound =
  match Prng.next_int prng ~bound:tx_bound with
  | 0 -> Commit
  | 1 -> Abort
  | _ ->
      if Prng.next_int prng ~bound:5 < 3 then
        Ingest (Prng.next_int prng ~bound:4, 1 + Prng.next_int prng ~bound:6)
      else
        Line
          (List.init
             (1 + Prng.next_int prng ~bound:3)
             (fun _ ->
               (Prng.next_int prng ~bound:4, Prng.next_int prng ~bound:8)))

type wake_run = { engine : Engine.t; executed : string list ref }

let wake_run trigger specs =
  let config =
    { Engine.default_config with Engine.trigger; max_rule_executions = 20 }
  in
  let engine = Engine.create ~config (Domain.schema ()) in
  define_all engine specs;
  let executed = ref [] in
  Engine.set_on_execution engine (fun name -> executed := name :: !executed);
  { engine; executed }

let apply_wake_step run step =
  let outcome = function
    | Ok () -> "ok"
    | Error e -> Fmt.str "%a" Engine.pp_error e
  in
  match step with
  | Ingest (ty, oid) ->
      outcome
        (Engine.ingest_event run.engine ~etype:ingested.(ty)
           ~oid:(Ident.Oid.of_int oid))
  | Line ops ->
      outcome
        (Engine.execute_line run.engine (List.map (stock_op run.engine) ops))
  | Commit -> outcome (Engine.commit run.engine)
  | Abort ->
      Engine.abort run.engine;
      "aborted"

let run_wake_scenario ~seed ~tx_bound detection =
  let prng = Prng.create ~seed in
  let specs =
    List.init
      (2 + (seed mod 4))
      (fun i ->
        {
          (wake_rule (Printf.sprintf "r%d" i)
             (Expr_gen.gen prng ~profile:Expr_gen.full_profile
                ~alphabet:wake_alphabet ~depth:(1 + (seed mod 4)) ()))
          with
          Rule.consumption =
            (if Prng.next_bool prng then Rule.Consuming else Rule.Preserving);
          action = (if Prng.next_int prng ~bound:3 = 0 then spawn_show else []);
          priority = Prng.next_int prng ~bound:3;
        })
  in
  let sweep ~optimizer =
    { Trigger_support.detection; optimizer; wake = Trigger_support.Sweep }
  in
  let oracle = wake_run (sweep ~optimizer:false) specs in
  (* The production path, and the sweep with V(E) on: it takes the V(E)
     scan skip that the indexed wake leaves to always-relevant rules. *)
  let checked =
    [
      ( "indexed",
        wake_run { Trigger_support.default_config with detection } specs );
      ("sweep with V(E)", wake_run (sweep ~optimizer:true) specs);
    ]
  in
  let mode =
    match detection with
    | Trigger_support.Exact -> "exact"
    | Trigger_support.Endpoint -> "endpoint"
  in
  let fingerprint run =
    let s = Engine.statistics run.engine in
    ( s.Engine.considerations,
      s.Engine.executions,
      s.Engine.events,
      s.Engine.trigger_stats.Trigger_support.fired )
  in
  let describe run =
    let c, x, v, f = fingerprint run in
    Printf.sprintf "executed [%s], cons=%d exec=%d events=%d fired=%d"
      (String.concat " " (List.rev !(run.executed)))
      c x v f
  in
  let exprs =
    String.concat "; "
      (List.map (fun sp -> Expr.to_string sp.Rule.event) specs)
  in
  for step = 0 to 29 do
    let st = gen_wake_step prng ~tx_bound in
    let a = apply_wake_step oracle st in
    List.iter
      (fun (name, run) ->
        let b = apply_wake_step run st in
        if a <> b || !(oracle.executed) <> !(run.executed)
           || fingerprint oracle <> fingerprint run
        then
          Alcotest.failf
            "seed %d %s step %d (%s): sweep without V(E) %s, %s; %s %s, %s"
            seed mode step exprs a (describe oracle) name b (describe run))
      checked
  done;
  let at = Event_base.probe_now (Engine.event_base oracle.engine) in
  List.iter
    (fun sp ->
      let e = sp.Rule.event in
      let ts run =
        ts_over (Engine.event_base run.engine) ~after:Time.origin ~at e
      in
      let a = ts oracle in
      List.iter
        (fun (name, run) ->
          let b = ts run in
          if a <> b then
            Alcotest.failf "seed %d %s expr %s: ts sweep without V(E)=%d %s=%d"
              seed mode (Expr.to_string e) a name b)
        checked)
    specs

let test_wake_modes_agree () =
  List.iter
    (fun detection ->
      for i = 0 to scenarios - 1 do
        run_wake_scenario ~seed:(1000 + i) ~tx_bound:40 detection
      done;
      for i = 0 to 39 do
        run_wake_scenario ~seed:(5000 + i) ~tx_bound:10 detection
      done)
    [ Trigger_support.Exact; Trigger_support.Endpoint ]

(* -------------------------------- windowed ≡ unwindowed differential *)

(* Sliding-window retirement must be invisible: the same seeded rules and
   operation history through a windowed engine (retirement after every
   single line — maximal pressure) and an unwindowed twin (retirement
   off, the log grows forever) must show identical rule
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
        Engine.window_events = true;
        retire_in_tx = Some 1;
      }
    else
      {
        Engine.default_config with
        Engine.window_events = false;
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

(* ------------------------------------ incremental lift differential *)

(* The rule's incremental lift state ({!Lift}) against the specification
   it stands in for: [Ts.lift] for every instance node, [Ts.ts] for whole
   set expressions (whose set-level [Seq] probes behind the state's
   cursor) and, on the negation-free fragment, the per-object incremental
   tree.  Each seed draws full-profile expressions and drives one event
   base through a random schedule of arrivals, considerations (the window
   lower bound moves), commits, aborts ([truncate_to] reissues the undone
   instants to other arrivals) and mid-transaction retirement.  A state
   is probed at each event instant and the probe instant after it, as the
   Trigger Support probes — in bursts, so catching up also spans several
   arrivals — and now and then at an earlier instant behind its cursor. *)

let lift_seeds = 160

let run_lift_scenario ~seed =
  let prng = Prng.create ~seed in
  let alphabet = Domain.abstract_alphabet (2 + (seed mod 3)) in
  let depth = 1 + (seed mod 4) in
  let profile = Expr_gen.full_profile in
  let insts =
    List.init 3 (fun _ -> Expr_gen.gen_inst prng ~profile ~alphabet ~depth)
  in
  let sets =
    List.init 2 (fun _ -> Expr_gen.gen prng ~profile ~alphabet ~depth ())
  in
  let nodes = List.map (fun ie -> (ie, Lift.create (Expr.Inst ie))) insts in
  let whole = List.map (fun e -> (e, Lift.create e)) sets in
  let trees =
    List.filter_map
      (fun (ie, st) ->
        if Expr.inst_has_negation ie then None
        else Some (ie, st, Inst_tree_detector.create ie))
      nodes
  in
  let objects = 1 + (seed mod 5) in
  let eb = Event_base.create () in
  let after = ref Time.origin in
  let tx_instant = ref Time.origin and tx_after = ref Time.origin in
  let restart_window at =
    after := at;
    List.iter (fun (_, _, tree) -> Inst_tree_detector.reset tree) trees
  in
  let fail step what expr ~at expected got =
    Alcotest.failf
      "seed %d step %d %s %s at %d (window after %d): expected %d, lift \
       state %d"
      seed step what expr (Time.to_int at) (Time.to_int !after) expected got
  in
  let probe step ~at =
    let upto = Event_base.probe_now eb in
    let env = Ts.env eb ~window:(Window.make ~after:!after ~upto) in
    List.iter
      (fun (ie, st) ->
        let expected = Ts.lift env ~at ie and got = Lift.ts st env ~at in
        if expected <> got then
          fail step "node" (Expr.inst_to_string ie) ~at expected got)
      nodes;
    List.iter
      (fun (e, st) ->
        let expected = Ts.ts env ~at e and got = Lift.ts st env ~at in
        if expected <> got then
          fail step "expr" (Expr.to_string e) ~at expected got)
      whole
  in
  for step = 0 to 59 do
    (match Prng.next_int prng ~bound:24 with
    | 0 -> (* a consideration *) restart_window (Event_base.probe_now eb)
    | 1 ->
        (* a commit, retiring the finished transaction or not *)
        tx_instant := Event_base.now eb;
        tx_after := Event_base.probe_now eb;
        restart_window !tx_after;
        if Prng.next_int prng ~bound:2 = 0 then
          Event_base.retire_to eb ~horizon:!tx_after
            ~type_horizon:(fun _ -> !tx_after)
    | 2 ->
        (* an abort: later arrivals reuse the undone instants *)
        Event_base.truncate_to eb ~instant:!tx_instant;
        restart_window !tx_after
    | 3 ->
        (* mid-transaction retirement, as far as the window allows *)
        let upto = !after in
        Event_base.retire_to eb ~horizon:!tx_after
          ~type_horizon:(fun _ -> upto)
    | _ ->
        let etype = Prng.pick prng (Array.of_list alphabet) in
        let oid = Ident.Oid.of_int (1 + Prng.next_int prng ~bound:objects) in
        let occ = Event_base.record eb ~etype ~oid in
        List.iter
          (fun (_, _, tree) ->
            Inst_tree_detector.on_event tree ~etype ~oid
              ~timestamp:(Occurrence.timestamp occ))
          trees);
    if Prng.next_int prng ~bound:3 > 0 then begin
      let now = Event_base.now eb and at = Event_base.probe_now eb in
      let span = Time.to_int now - Time.to_int !after in
      if span > 0 && Prng.next_int prng ~bound:6 = 0 then begin
        let behind = Time.to_int !after + Prng.next_int prng ~bound:span in
        probe step ~at:(Time.of_int behind)
      end;
      probe step ~at:now;
      probe step ~at;
      let env = Ts.env eb ~window:(Window.make ~after:!after ~upto:at) in
      List.iter
        (fun (ie, st, tree) ->
          let lifted = max 0 (Lift.ts st env ~at) in
          if lifted <> Inst_tree_detector.value tree then
            fail step "tree" (Expr.inst_to_string ie) ~at
              (Inst_tree_detector.value tree) lifted)
        trees
    end
  done

let test_lift_agrees () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let updates = Obs.Metrics.counter "ts.lift_updates" in
  let before = Obs.Metrics.counter_value updates in
  for i = 0 to lift_seeds - 1 do
    run_lift_scenario ~seed:(8000 + i)
  done;
  (* The states really folded arrivals in, rather than deferring every
     probe to the specification. *)
  let moved = Obs.Metrics.counter_value updates - before in
  Alcotest.(check bool)
    (Printf.sprintf "lift states re-evaluated objects (%d)" moved)
    true (moved > lift_seeds * 20)

(* The same states inside the engine, driven by its own probe schedule:
   V(E)-restricted candidates, considerations moving the window, commits
   and aborts.  After every line, each rule's state must read what
   [Ts.ts] reads over the rule's trigger window. *)
let run_engine_lift_scenario ~seed =
  let prng = Prng.create ~seed in
  let alphabet = Domain.abstract_alphabet 3 in
  let exprs =
    List.init
      (1 + (seed mod 4))
      (fun _ ->
        to_domain
          (Expr_gen.gen prng ~profile:Expr_gen.full_profile ~alphabet
             ~depth:(1 + (seed mod 3)) ()))
  in
  let engine = wake_engine exprs in
  for step = 0 to 29 do
    wake_step engine (Prng.next_int prng ~bound:3, Prng.next_int prng ~bound:8);
    (match Prng.next_int prng ~bound:10 with
    | 0 -> (
        match Engine.commit engine with
        | Ok () -> ()
        | Error e -> Alcotest.failf "commit: %a" Engine.pp_error e)
    | 1 -> Engine.abort engine
    | _ -> ());
    let eb = Engine.event_base engine in
    let at = Event_base.probe_now eb in
    Rule_table.iter
      (fun rule ->
        let after = Rule.trigger_window_start rule in
        let env = Ts.env eb ~window:(Window.make ~after ~upto:at) in
        let expected = Ts.ts env ~at rule.Rule.spec.event
        and got = Lift.ts rule.Rule.lift env ~at in
        if expected <> got then
          Alcotest.failf "seed %d step %d rule %s (%s): Ts %d, lift state %d"
            seed step (Rule.name rule)
            (Expr.to_string rule.Rule.spec.event)
            expected got)
      (Engine.rules engine)
  done

let test_engine_lift_agrees () =
  for i = 0 to lift_seeds - 1 do
    run_engine_lift_scenario ~seed:(9000 + i)
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
    ( Printf.sprintf "%d scenarios: incremental lift = Ts.lift = instance tree"
        lift_seeds,
      `Quick,
      test_lift_agrees );
    ( Printf.sprintf "%d scenarios: engine rules' lift states = Ts" lift_seeds,
      `Quick,
      test_engine_lift_agrees );
  ]
