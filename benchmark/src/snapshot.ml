(* The server's own metrics, as it reports them: the STATS reply and the
   snapshot [chimera serve --metrics] prints after its drain, parsed into
   named counters, gauges and histograms. *)

(* STATS lines read "<section>: <n> <name>(s), <n> <name>(s) ...", e.g.
   "engine: 7 line(s), 7 event(s)"; each count becomes
   "<section>.<name>". *)
let of_stats text =
  List.concat_map
    (fun line ->
      match String.index_opt line ':' with
      | None -> []
      | Some i ->
          let section = String.trim (String.sub line 0 i) in
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          List.filter_map
            (fun item ->
              match String.split_on_char ' ' (String.trim item) with
              | n :: name :: _ -> (
                  match int_of_string_opt n with
                  | Some v ->
                      let name =
                        match String.index_opt name '(' with
                        | Some j -> String.sub name 0 j
                        | None -> name
                      in
                      Some (section ^ "." ^ name, v)
                  | None -> None)
              | _ -> None)
            (String.split_on_char ',' rest))
    (String.split_on_char '\n' text)

(* "9.75us" -> 9750. ; the dump rounds, so these are approximate. *)
let ns_of_pretty s =
  let s = String.trim s in
  let num suffix scale =
    let n = String.length s - String.length suffix in
    Option.map (fun v -> v *. scale) (float_of_string_opt (String.sub s 0 n))
  in
  let ends suffix = String.ends_with ~suffix s in
  if ends "ns" then num "ns" 1.
  else if ends "us" then num "us" 1e3
  else if ends "ms" then num "ms" 1e6
  else if ends "s" then num "s" 1e9
  else None

(* The aligned tables of [Obs.pp_snapshot]: a title line, then
   "| name | value |" rows. *)
let of_dump text =
  let section = ref "" and counters = ref [] and gauges = ref [] and hists = ref [] in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line = "counters" || line = "gauges" || line = "histograms" then section := line
      else if String.length line > 1 && line.[0] = '|' && line.[1] <> '-' then
        match List.map String.trim (String.split_on_char '|' line) with
        | "" :: "name" :: _ -> ()
        | "" :: name :: value :: rest -> (
            match (!section, rest) with
            | "counters", _ ->
                Option.iter (fun v -> counters := (name, Json.Int v) :: !counters) (int_of_string_opt value)
            | "gauges", _ ->
                Option.iter (fun v -> gauges := (name, Json.Int v) :: !gauges) (int_of_string_opt value)
            | "histograms", mean :: min :: max :: _ -> (
                match int_of_string_opt value with
                | Some count when count > 0 ->
                    let ns s =
                      match ns_of_pretty s with Some v -> Json.Num v | None -> Json.Null
                    in
                    hists :=
                      ( name,
                        Json.Obj
                          [
                            ("count", Json.Int count);
                            ("mean_ns", ns mean);
                            ("min_ns", ns min);
                            ("max_ns", ns max);
                          ] )
                      :: !hists
                | _ -> ())
            | _ -> ())
        | _ -> ())
    (String.split_on_char '\n' text);
  Json.Obj
    [
      ("counters", Json.Obj (List.rev !counters));
      ("gauges", Json.Obj (List.rev !gauges));
      ("histograms", Json.Obj (List.rev !hists));
    ]
