(* E11: wide rule sets under sweep vs indexed wake.

   N rules, each watching create(c_i) for its own class — disjoint,
   sparse event types, the discrimination-network workload of Section 5.
   Traffic is round-robin: every line creates one object of class
   c_(line mod N), so exactly one rule is relevant per line.  The sweep
   wake still visits all N rules after every block; the indexed wake
   drains only the one subscribed rule.  The table reports how checks,
   probes and wall-clock scale as N grows 10 -> 100 -> 1000 under each
   mode: per-event work should stay flat under the indexed wake. *)

open Core

let lines = 1200
let commit_every = 300
let sizes = [ 10; 100; 1000 ]

let class_name i = Printf.sprintf "w%d" i

let schema n =
  let s = Schema.create () in
  for i = 0 to n - 1 do
    match Schema.define s ~name:(class_name i) ~attributes:[] () with
    | Ok _ -> ()
    | Error _ -> failwith "schema"
  done;
  s

let watch_rule i =
  {
    Rule.name = Printf.sprintf "watch%d" i;
    target = None;
    event = Expr.prim (Event_type.create ~class_name:(class_name i));
    condition = [];
    action = [];
    coupling = Rule.Immediate;
    consumption = Rule.Consuming;
    priority = 0;
  }

type row = {
  n : int;
  mode : string;
  wall_ns : float;
  checks : int;
  probes : int;
  skipped : int;
  woken : int;
  idle : int;
  fired : int;
  events : int;
  evals : int;
}

let run ~wake ~mode n =
  let config =
    {
      Engine.default_config with
      Engine.trigger = { Trigger_support.default_config with Trigger_support.wake };
    }
  in
  let engine = Engine.create ~config (schema n) in
  for i = 0 to n - 1 do
    ignore (Engine.define_exn engine (watch_rule i))
  done;
  let evals0 = Obs.Metrics.counter_value (Obs.Metrics.counter "ts.evals") in
  let wall_ns, () =
    Bench_util.time_once_ns (fun () ->
        for line = 0 to lines - 1 do
          (match
             Engine.execute_line engine
               [ Operation.Create { class_name = class_name (line mod n); attrs = [] } ]
           with
          | Ok () -> ()
          | Error e -> failwith (Format.asprintf "%a" Engine.pp_error e));
          if (line + 1) mod commit_every = 0 then
            match Engine.commit engine with
            | Ok () -> ()
            | Error e -> failwith (Format.asprintf "%a" Engine.pp_error e)
        done)
  in
  let evals1 = Obs.Metrics.counter_value (Obs.Metrics.counter "ts.evals") in
  let s = Engine.statistics engine in
  let t = s.Engine.trigger_stats in
  {
    n;
    mode;
    wall_ns;
    checks = t.Trigger_support.checks;
    probes = t.Trigger_support.probes;
    skipped = t.Trigger_support.skipped;
    woken = t.Trigger_support.woken;
    idle = t.Trigger_support.idle;
    fired = t.Trigger_support.fired;
    events = s.Engine.events;
    evals = evals1 - evals0;
  }

let e11 () =
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  print_endline "== E11: wide rule sets (sweep vs indexed wake) ==";
  Printf.printf "   %d lines per run, commit every %d, one create per line,\n"
    lines commit_every;
  print_endline "   N disjoint rule/event types, round-robin traffic.";
  let rows =
    List.concat_map
      (fun n ->
        [ run ~wake:Trigger_support.Sweep ~mode:"sweep" n;
          run ~wake:Trigger_support.Indexed ~mode:"indexed" n ])
      sizes
  in
  let table =
    Pretty.table ~title:"E11: per-mode totals over 1200 lines"
      ~header:
        [ "N"; "wake"; "wall"; "checks"; "probes"; "ts evals"; "woken";
          "idle"; "fired" ]
      ()
  in
  List.iter
    (fun r ->
      Pretty.add_row table
        [
          Pretty.int_cell r.n;
          r.mode;
          Pretty.ns_cell r.wall_ns;
          Pretty.int_cell r.checks;
          Pretty.int_cell r.probes;
          Pretty.int_cell r.evals;
          Pretty.int_cell r.woken;
          Pretty.int_cell r.idle;
          Pretty.int_cell r.fired;
        ])
    rows;
  Pretty.print table;
  (* Headline ratio: wall-clock sweep/indexed per N. *)
  let find mode n = List.find (fun r -> r.n = n && r.mode = mode) rows in
  let ratio =
    Pretty.table ~title:"E11: sweep / indexed" ~header:[ "N"; "wall"; "checks" ]
      ()
  in
  List.iter
    (fun n ->
      let s = find "sweep" n and i = find "indexed" n in
      Pretty.add_row ratio
        [
          Pretty.int_cell n;
          Pretty.ratio_cell s.wall_ns i.wall_ns;
          Pretty.ratio_cell (float_of_int s.checks) (float_of_int i.checks);
        ])
    sizes;
  Pretty.print ratio;
  Bench_util.write_json ~experiment:"e11"
    (List.map
       (fun r ->
         Bench_util.J_obj
           [
             ("n", Bench_util.J_int r.n);
             ("wake", Bench_util.J_string r.mode);
             ("wall_ns", Bench_util.J_float r.wall_ns);
             ("checks", Bench_util.J_int r.checks);
             ("probes", Bench_util.J_int r.probes);
             ("skipped", Bench_util.J_int r.skipped);
             ("ts_evals", Bench_util.J_int r.evals);
             ("woken", Bench_util.J_int r.woken);
             ("idle", Bench_util.J_int r.idle);
             ("fired", Bench_util.J_int r.fired);
             ("events", Bench_util.J_int r.events);
             ("lines", Bench_util.J_int lines);
           ])
       rows);
  Obs.set_enabled was_enabled
