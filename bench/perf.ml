(* Performance experiments E1, E2, E4, E5, E6 (see EXPERIMENTS.md).

   E1 — ts evaluation latency vs event-base window size
   E2 — ablation: Trigger Support with/without the V(E) relevance filter
   E4 — instance-oriented lifting cost vs object population
   E5 — consuming vs preserving windows over a long transaction
   E6 — end-to-end engine throughput on the inventory scenario *)

open Core
open Chimera_rules

(* ------------------------------------------------------------------ E1 *)

let e1 () =
  Bench_util.print_header "E1: ts evaluation latency vs window size";
  Bench_util.print_note
    "Recompute-from-indexes cost (Section 5): primitive lookups are\n\
     index probes, set-oriented composites stay logarithmic in the window,\n\
     while instance-to-set lifting scans the window's objects.";
  let prng = Prng.create ~seed:(Bench_util.seed_of_experiment "e1") in
  let alphabet = Domain.abstract_alphabet 8 in
  let exprs =
    [
      ("primitive", Expr.prim (List.hd alphabet));
      ( "boolean depth 4",
        Expr_gen.gen prng ~profile:Expr_gen.boolean_profile ~alphabet ~depth:4 () );
      ( "sequence chain",
        Expr.seq
          (Expr.seq (Expr.prim (List.nth alphabet 0)) (Expr.prim (List.nth alphabet 1)))
          (Expr.prim (List.nth alphabet 2)) );
      ( "instance conj (lifted)",
        Expr.Inst
          (Expr.i_conj
             (Expr.I_prim (List.nth alphabet 0))
             (Expr.I_prim (List.nth alphabet 1))) );
    ]
  in
  let sizes = [ 100; 1_000; 10_000; 100_000 ] in
  let table =
    Pretty.table ~title:"ns per ts evaluation (64 live objects)"
      ~header:("window events" :: List.map fst exprs)
      ~aligns:(List.init (1 + List.length exprs) (fun _ -> Pretty.Right))
      ()
  in
  let json_rows = ref [] in
  List.iter
    (fun n ->
      let stream = Expr_gen.stream prng ~alphabet ~objects:64 ~length:n in
      let eb = Bench_util.replay_stream stream in
      let at = Event_base.probe_now eb in
      let env = Ts.env eb ~window:(Window.all ~upto:at) in
      let cells =
        List.map
          (fun (label, e) ->
            let ns = Bench_util.time_ns (fun () -> Ts.ts env ~at e) in
            json_rows :=
              Bench_util.(
                J_obj
                  [
                    ("window_events", J_int n);
                    ("expr", J_string label);
                    ("ns", J_float ns);
                  ])
              :: !json_rows;
            Pretty.ns_cell ns)
          exprs
      in
      Pretty.add_row table (string_of_int n :: cells))
    sizes;
  Pretty.print table;
  Bench_util.write_json ~experiment:"e1" (List.rev !json_rows)

(* ------------------------------------------------------------------ E2 *)

(* Detection-layer harness: rules checked by the Trigger Support directly
   over a raw event stream, with immediate synthetic consideration so the
   triggered flag does not mask work. *)
let detection_run ~optimizer ~rules ~stream ~block () =
  let table = Rule_table.create () in
  let eb = Event_base.create () in
  let tx_start = Event_base.probe_now eb in
  List.iteri
    (fun i event ->
      match
        Rule_table.add table ~tx_start
          {
            Rule.name = Printf.sprintf "r%d" i;
            target = None;
            event;
            condition = [];
            action = [];
            coupling = Rule.Immediate;
            consumption = Rule.Consuming;
            priority = 0;
          }
      with
      | Ok _ -> ()
      | Error (`Rule_error msg) -> invalid_arg msg)
    rules;
  let config =
    {
      Trigger_support.detection = Trigger_support.Exact;
      optimizer;
      (* This harness drives check_all directly without an engine, so
         there is no listener feeding a wake index: sweep mode. *)
      wake = Trigger_support.Sweep;
    }
  in
  let wake = Trigger_support.Wake.create () in
  let stats = Trigger_support.stats () in
  let consider_triggered () =
    Rule_table.iter
      (fun r ->
        if r.Rule.triggered then
          Rule.detrigger r ~at:(Event_base.probe_now eb))
      table
  in
  let rec feed = function
    | [] -> ()
    | chunk ->
        let rec take n acc rest =
          if n = 0 then (List.rev acc, rest)
          else match rest with
            | [] -> (List.rev acc, [])
            | x :: xs -> take (n - 1) (x :: acc) xs
        in
        let now, later = take block [] chunk in
        List.iter
          (fun (etype, oid) -> ignore (Event_base.record eb ~etype ~oid))
          now;
        Trigger_support.check_all config stats eb wake table;
        consider_triggered ();
        feed later
  in
  let elapsed, () = Bench_util.time_once_ns (fun () -> feed stream) in
  (elapsed, stats)

let e2 () =
  Bench_util.print_header "E2: ablation - the V(E) relevance filter (Section 5.1)";
  Bench_util.print_note
    "Same rules, same stream, exact detection; only the static filter\n\
     differs.  Rules subscribe to 3 of 24 event types each, so most\n\
     arrivals are irrelevant to most rules - the situation the paper's\n\
     optimization targets.";
  let prng = Prng.create ~seed:(Bench_util.seed_of_experiment "e2") in
  let alphabet = Domain.abstract_alphabet 24 in
  let stream = Expr_gen.stream prng ~alphabet ~objects:32 ~length:4_000 in
  let table =
    Pretty.table
      ~title:"4000 events, blocks of 4, negation-free rule sets"
      ~header:
        [ "rules"; "optimizer"; "total"; "recomputations"; "skipped"; "speedup" ]
      ~aligns:
        [ Pretty.Right; Pretty.Left; Pretty.Right; Pretty.Right; Pretty.Right; Pretty.Right ]
      ()
  in
  List.iter
    (fun nrules ->
      let rule_prng = Prng.create ~seed:(1000 + nrules) in
      let rules =
        List.init nrules (fun _ ->
            (* Each rule watches a narrow slice of the alphabet. *)
            let base = Prng.next_int rule_prng ~bound:(List.length alphabet - 3) in
            let sub = [ List.nth alphabet base; List.nth alphabet (base + 1);
                        List.nth alphabet (base + 2) ] in
            Expr_gen.gen rule_prng ~profile:Expr_gen.regular_profile
              ~alphabet:sub ~depth:3 ())
      in
      let t_off, s_off =
        detection_run ~optimizer:false ~rules ~stream ~block:4 ()
      in
      let t_on, s_on =
        detection_run ~optimizer:true ~rules ~stream ~block:4 ()
      in
      let row optimizer t (s : Trigger_support.stats) speedup =
        Pretty.add_row table
          [
            string_of_int nrules;
            optimizer;
            Pretty.ns_cell t;
            string_of_int s.Trigger_support.recomputations;
            string_of_int s.Trigger_support.skipped;
            speedup;
          ]
      in
      row "off" t_off s_off "1.00x";
      row "on" t_on s_on (Pretty.ratio_cell t_off t_on))
    [ 8; 32; 128 ];
  Pretty.print table

(* ------------------------------------------------------------------ E4 *)

let e4 () =
  Bench_util.print_header "E4: instance-oriented lifting cost vs object population";
  Bench_util.print_note
    "The same conjunction at both granularities: the set-oriented version\n\
     is two index probes; the instance-oriented version evaluates ots for\n\
     every object affected in the window (Section 5's per-object sparse\n\
     structures).";
  let prng = Prng.create ~seed:(Bench_util.seed_of_experiment "e4") in
  let alphabet = Domain.abstract_alphabet 4 in
  let a = List.nth alphabet 0 and b = List.nth alphabet 1 in
  let set_expr = Expr.conj (Expr.prim a) (Expr.prim b) in
  let inst_expr = Expr.Inst (Expr.i_conj (Expr.I_prim a) (Expr.I_prim b)) in
  let table =
    Pretty.table ~title:"ns per evaluation, 20k-event window"
      ~header:[ "objects"; "set-oriented"; "instance-oriented"; "ratio" ]
      ~aligns:[ Pretty.Right; Pretty.Right; Pretty.Right; Pretty.Right ]
      ()
  in
  List.iter
    (fun objects ->
      let stream = Expr_gen.stream prng ~alphabet ~objects ~length:20_000 in
      let eb = Bench_util.replay_stream stream in
      let at = Event_base.probe_now eb in
      let env = Ts.env eb ~window:(Window.all ~upto:at) in
      let t_set = Bench_util.time_ns (fun () -> Ts.ts env ~at set_expr) in
      let t_inst = Bench_util.time_ns (fun () -> Ts.ts env ~at inst_expr) in
      Pretty.add_row table
        [
          string_of_int objects;
          Pretty.ns_cell t_set;
          Pretty.ns_cell t_inst;
          Pretty.ratio_cell t_inst t_set;
        ])
    [ 10; 100; 1_000; 10_000 ];
  Pretty.print table

(* ------------------------------------------------------------------ E5 *)

let e5 () =
  Bench_util.print_header "E5: consuming vs preserving windows over a long transaction";
  Bench_util.print_note
    "A consuming rule's window restarts at each consideration; a\n\
     preserving rule re-reads the whole transaction.  Cost of one\n\
     instance-oriented check at increasing transaction lengths:";
  let prng = Prng.create ~seed:(Bench_util.seed_of_experiment "e5") in
  let alphabet = Domain.abstract_alphabet 4 in
  let a = List.nth alphabet 0 and b = List.nth alphabet 1 in
  let inst_expr = Expr.Inst (Expr.i_seq (Expr.I_prim a) (Expr.I_prim b)) in
  let table =
    Pretty.table ~title:"ns per ts evaluation of create<=modify-style rule"
      ~header:[ "events so far"; "consuming (window 64)"; "preserving (whole tx)"; "ratio" ]
      ~aligns:[ Pretty.Right; Pretty.Right; Pretty.Right; Pretty.Right ]
      ()
  in
  let stream = Expr_gen.stream prng ~alphabet ~objects:128 ~length:100_000 in
  let eb = Bench_util.replay_stream stream in
  let stamps =
    Array.of_list
      (Event_base.timestamps_in eb
         ~window:(Window.all ~upto:(Event_base.probe_now eb)))
  in
  List.iter
    (fun upto_events ->
      let at = Time.probe_after stamps.(upto_events - 1) in
      let preserving = Ts.env eb ~window:(Window.make ~after:Time.origin ~upto:at) in
      let consuming_after =
        if upto_events > 64 then Time.probe_after stamps.(upto_events - 65)
        else Time.origin
      in
      let consuming =
        Ts.env eb ~window:(Window.make ~after:consuming_after ~upto:at)
      in
      let t_cons = Bench_util.time_ns (fun () -> Ts.ts consuming ~at inst_expr) in
      let t_pres = Bench_util.time_ns (fun () -> Ts.ts preserving ~at inst_expr) in
      Pretty.add_row table
        [
          string_of_int upto_events;
          Pretty.ns_cell t_cons;
          Pretty.ns_cell t_pres;
          Pretty.ratio_cell t_pres t_cons;
        ])
    [ 1_000; 10_000; 50_000; 100_000 ];
  Pretty.print table

(* ------------------------------------------------------------------ E6 *)

let e6 () =
  Bench_util.print_header "E6: end-to-end engine throughput (inventory scenario)";
  let run ~detection ~optimizer ~extra_rules () =
    let config =
      {
        Engine.default_config with
        Engine.trigger =
          { Trigger_support.default_config with detection; optimizer };
      }
    in
    let engine = Scenario.engine ~config () in
    let prng = Prng.create ~seed:(Bench_util.seed_of_experiment "e6") in
    (* Optional pack of extra composite listeners to stress the support. *)
    let rule_prng = Prng.create ~seed:99 in
    for i = 1 to extra_rules do
      let event =
        Expr.map_primitives
          (fun _ ->
            Prng.pick rule_prng
              (Array.of_list
                 [ Domain.create_stock; Domain.modify_stock_quantity; Domain.delete_stock ]))
          (Expr_gen.gen rule_prng ~profile:Expr_gen.regular_profile
             ~alphabet:(Domain.abstract_alphabet 3) ~depth:3 ())
      in
      ignore
        (Engine.define_exn engine
           {
             Rule.name = Printf.sprintf "listener%d" i;
             target = None;
             event;
             condition = [];
             action = [];
             coupling = Rule.Immediate;
             consumption = Rule.Consuming;
             priority = -1;
           })
    done;
    let lines = 400 and ops_per_line = 5 in
    let elapsed, () =
      Bench_util.time_once_ns (fun () ->
          Scenario.run_inventory_traffic prng engine ~lines ~ops_per_line;
          match Engine.commit engine with
          | Ok () -> ()
          | Error e -> invalid_arg (Fmt.str "%a" Engine.pp_error e))
    in
    (elapsed, Engine.statistics engine, lines)
  in
  let table =
    Pretty.table ~title:"400 lines x 5 ops, standard rules + extra listeners"
      ~header:
        [ "configuration"; "lines/s"; "events"; "recomputations"; "skipped"; "executions" ]
      ~aligns:
        [ Pretty.Left; Pretty.Right; Pretty.Right; Pretty.Right; Pretty.Right; Pretty.Right ]
      ()
  in
  let row name ~detection ~optimizer ~extra_rules =
    let elapsed, stats, lines = run ~detection ~optimizer ~extra_rules () in
    Pretty.add_row table
      [
        name;
        Printf.sprintf "%.0f" (float_of_int lines /. (elapsed /. 1e9));
        string_of_int stats.Engine.events;
        string_of_int stats.Engine.trigger_stats.Trigger_support.recomputations;
        string_of_int stats.Engine.trigger_stats.Trigger_support.skipped;
        string_of_int stats.Engine.executions;
      ]
  in
  row "exact, V(E) on, 2 rules" ~detection:Trigger_support.Exact ~optimizer:true
    ~extra_rules:0;
  row "exact, V(E) off, 2 rules" ~detection:Trigger_support.Exact
    ~optimizer:false ~extra_rules:0;
  row "exact, V(E) on, +16 listeners" ~detection:Trigger_support.Exact
    ~optimizer:true ~extra_rules:16;
  row "exact, V(E) off, +16 listeners" ~detection:Trigger_support.Exact
    ~optimizer:false ~extra_rules:16;
  row "endpoint, V(E) on, +16 listeners" ~detection:Trigger_support.Endpoint
    ~optimizer:true ~extra_rules:16;
  Pretty.print table

let all () =
  e1 ();
  e2 ();
  e4 ();
  e5 ();
  e6 ()
