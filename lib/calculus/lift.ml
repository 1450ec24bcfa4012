(* Incremental instance-to-set lifting: the engine's evaluator for the
   [Inst] nodes of a rule's event expression.

   [Ts.lift] folds [ots] over every object of the window at every probe
   (Section 4.3).  Within one window, an object's [ots] only changes when
   an occurrence of one of the node's own types arrives on it; between
   two such arrivals it is either a fixed value (a signed event instant)
   or the probe instant itself, signed (+at or -at).  So each node keeps,
   per object, that value as of the object's last arrival, and an ordered
   value -> count map from which the max-lift (the min-lift for a
   top-level [-=]) is read in O(log objects) — the per-rule sparse
   per-object structure of Section 5, maintained from the delta instead
   of rescanned.

   The state catches up lazily, at a probe, from the instant it last
   answered for ([cursor]), by walking the log's new occurrences, so
   recording an event costs nothing extra.  It is exact derived state,
   bounded by the objects of the window it last answered for, and starts
   over when the window's lower bound moves, when [truncate_to] has run
   since (a truncation reissues instants to other occurrences), or when
   it is asked about another event base.  A probe behind the cursor — a
   set-level [Seq] evaluating its left operand at an earlier instant —
   is answered by [Ts.lift] without touching the state. *)

open Chimera_util
open Chimera_event
module Obs = Chimera_obs.Obs

(* Per-object re-evaluations of [ots]: one per arrival of a node's types
   that a state folds in. *)
let c_updates = Obs.Metrics.counter "ts.lift_updates"

module Int_map = Map.Make (Int)
module Int_tbl = Hashtbl.Make (Int)

(* Map keys for the two probe-relative values.  A fixed value is a signed
   event instant no later than any probe the state answers, so the keys
   sort exactly as the values do at every such probe. *)
let plus_at = max_int
let minus_at = min_int

type node = {
  ie : Expr.inst;
  min_lift : bool;  (** top-level [-=]: the fold is a minimum *)
  types : Event_type.t list;  (** the node's primitives *)
  default : int option;
      (** the key of a window object that saw none of [types], when such
          an object can decide the fold (+at under the max-lift, -at under
          the min-lift); [None] when it never can, and such objects are
          not tracked at all *)
  values : int Int_tbl.t;  (** oid -> key *)
  mutable counts : int Int_map.t;  (** key -> objects holding it *)
  mutable base : Event_base.t option;
  mutable generation : int;  (** [Event_base.generation] at the start *)
  mutable after : Time.t;  (** the window's lower bound *)
  mutable cursor : Time.t;  (** occurrences up to here are folded in *)
}

type t = { expr : Expr.set; nodes : (Expr.inst * node) list }

(* The sign [ots] takes on an object that saw none of the node's types:
   every primitive reads -at.  Asked of [Ts] itself on an empty base. *)
let default_sign ie =
  let at = Time.probe_after Time.origin in
  let env = Ts.env (Event_base.create ()) ~window:(Window.all ~upto:at) in
  Ts.ots env ~at ie (Ident.Oid.of_int 0) > 0

let node ie =
  let min_lift = match ie with Expr.I_not _ -> true | _ -> false in
  let default =
    match (min_lift, default_sign ie) with
    | false, true -> Some plus_at
    | true, false -> Some minus_at
    | false, false | true, true -> None
  in
  {
    ie;
    min_lift;
    types = Event_type.Set.elements (Expr.primitives_inst ie);
    default;
    values = Int_tbl.create 16;
    counts = Int_map.empty;
    base = None;
    generation = 0;
    after = Time.origin;
    cursor = Time.origin;
  }

let rec inst_nodes acc = function
  | Expr.Prim _ -> acc
  | Expr.Not e -> inst_nodes acc e
  | Expr.And (a, b) | Expr.Or (a, b) | Expr.Seq (a, b) ->
      inst_nodes (inst_nodes acc a) b
  | Expr.Inst ie -> (ie, node ie) :: acc

let create expr = { expr; nodes = inst_nodes [] expr }

let count n key delta =
  n.counts <-
    Int_map.update key
      (fun c ->
        match Option.value c ~default:0 + delta with
        | 0 -> None
        | c -> Some c)
      n.counts

let set_key n oid key =
  match Int_tbl.find_opt n.values oid with
  | Some old when old = key -> ()
  | old ->
      Option.iter (fun old -> count n old (-1)) old;
      Int_tbl.replace n.values oid key;
      count n key 1

let restart n eb ~after =
  Int_tbl.reset n.values;
  n.counts <- Int_map.empty;
  n.base <- Some eb;
  n.generation <- Event_base.generation eb;
  n.after <- after;
  n.cursor <- after

let of_type n etype =
  List.exists
    (fun p -> Event_type.generalizes ~subscription:p ~occurrence:etype)
    n.types

(* Folds the occurrences in (cursor, upto] in.  An arrival of the node's
   types re-evaluates its object at the probe instant just after it: a
   fixed value is a signed event instant (even), so a result of
   ±(stamp + 1) can only be ±at, and nothing before the object's next
   such arrival can change which. *)
let catch_up n env ~upto =
  Event_base.iter_in (Ts.event_base env)
    ~window:(Window.make ~after:n.cursor ~upto)
    (fun occ ->
      let oid = Occurrence.oid occ in
      if of_type n (Occurrence.etype occ) then begin
        Obs.Metrics.incr c_updates;
        let probe = Time.probe_after (Occurrence.timestamp occ) in
        let v = Ts.ots env ~at:probe n.ie oid in
        let key =
          if v = Time.to_int probe then plus_at
          else if v = -Time.to_int probe then minus_at
          else v
        in
        set_key n (Ident.Oid.to_int oid) key
      end
      else
        match n.default with
        | Some key when not (Int_tbl.mem n.values (Ident.Oid.to_int oid)) ->
            set_key n (Ident.Oid.to_int oid) key
        | Some _ | None -> ());
  n.cursor <- upto

let decode ~at key =
  if key = plus_at then Time.to_int at
  else if key = minus_at then -Time.to_int at
  else key

(* [Ts.lift env ~at n.ie], from the state when [at] is not behind it. *)
let value n env ~at =
  let eb = Ts.event_base env and window = Ts.window env in
  let after = Window.after window in
  let fresh =
    match n.base with
    | Some base ->
        base == eb
        && n.generation = Event_base.generation eb
        && Time.equal n.after after
    | None -> false
  in
  if not fresh then restart n eb ~after;
  let upto = Time.min at (Window.upto window) in
  if Time.( < ) upto n.cursor then Ts.lift env ~at n.ie
  else begin
    if Time.( > ) upto n.cursor then catch_up n env ~upto;
    if Int_map.is_empty n.counts then
      decode ~at (if n.min_lift then plus_at else minus_at)
    else if n.min_lift then decode ~at (fst (Int_map.min_binding n.counts))
    else decode ~at (fst (Int_map.max_binding n.counts))
  end

let ts t env ~at =
  match t.nodes with
  | [] -> Ts.ts env ~at t.expr
  | nodes ->
      Ts.ts_with env ~at t.expr ~lift:(fun env ~at ie ->
          value (List.assq ie nodes) env ~at)
