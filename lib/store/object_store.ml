(* The object store: class extents, attribute state, and the primitive
   state-changing operations that generate Chimera's internal events. *)

open Chimera_util

type obj = {
  oid : Ident.Oid.t;
  mutable class_name : string;
  attrs : (string, Value.t) Hashtbl.t;
  mutable deleted : bool;
}

(* Inverse operations, recorded by every mutator as it succeeds.  The
   undo log makes any store state reachable again: rolling back to a
   savepoint pops entries in reverse and applies the inverses, which is
   what gives blocks and transactions their abort semantics. *)
type undo =
  | U_insert of obj  (** inverse: remove the object entirely *)
  | U_set of obj * string * Value.t option  (** inverse: restore the value *)
  | U_delete of obj  (** inverse: resurrect *)
  | U_migrate of obj * string * (string * Value.t) list
      (** inverse: restore the old class and full attribute table *)

type t = {
  schema : Schema.t;
  objects : (int, obj) Hashtbl.t;
  oids : Ident.Oid.gen;
  (* Direct members per class (live and deleted; filtered on read).
     Extents walk the target class and its transitive subclasses instead
     of scanning the whole store. *)
  members : (string, int list ref) Hashtbl.t;
  mutable undo : undo list;  (** most recent first *)
  mutable undo_len : int;
}

type savepoint = { mark : int; saved_oid_count : int }

type error =
  [ Schema.error | `Unknown_object of string | `Deleted_object of string ]

let pp_error ppf = function
  | #Schema.error as e -> Schema.pp_error ppf e
  | `Unknown_object o -> Fmt.pf ppf "unknown object %s" o
  | `Deleted_object o -> Fmt.pf ppf "object %s was deleted" o

let create schema =
  {
    schema;
    objects = Hashtbl.create 256;
    oids = Ident.Oid.generator ();
    members = Hashtbl.create 32;
    undo = [];
    undo_len = 0;
  }

let record_undo t entry =
  t.undo <- entry :: t.undo;
  t.undo_len <- t.undo_len + 1

let schema t = t.schema

let members_of t class_name =
  match Hashtbl.find_opt t.members class_name with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.add t.members class_name l;
      l

let enroll t class_name oid =
  let l = members_of t class_name in
  l := Ident.Oid.to_int oid :: !l

let unenroll t class_name oid =
  let l = members_of t class_name in
  l := List.filter (fun k -> k <> Ident.Oid.to_int oid) !l

let find t oid =
  match Hashtbl.find_opt t.objects (Ident.Oid.to_int oid) with
  | None -> Error (`Unknown_object (Ident.Oid.to_string oid))
  | Some o when o.deleted -> Error (`Deleted_object (Ident.Oid.to_string oid))
  | Some o -> Ok o

let exists t oid =
  match find t oid with Ok _ -> true | Error _ -> false

let class_of t oid =
  match find t oid with Error _ as e -> e | Ok o -> Ok o.class_name

let ( let* ) = Result.bind

(* Validates the provided attributes against the (inherited) schema of the
   class; attributes not provided start as [Null]. *)
let insert t ~class_name ~attrs =
  let* declared =
    (Schema.attributes t.schema class_name
      : (_, Schema.error) result
      :> (_, error) result)
  in
  let* () =
    List.fold_left
      (fun acc (a, v) ->
        let* () = acc in
        match List.assoc_opt a declared with
        | None -> Error (`Unknown_attribute (class_name, a))
        | Some ty ->
            if Value.conforms v ty then Ok ()
            else
              Error
                (`Type_error
                  (Printf.sprintf "attribute %s.%s expects %s, got %s"
                     class_name a (Value.type_name ty) (Value.to_string v))))
      (Ok ()) attrs
  in
  let oid = Ident.Oid.fresh t.oids in
  let table = Hashtbl.create (List.length declared) in
  List.iter (fun (a, _) -> Hashtbl.replace table a Value.Null) declared;
  List.iter (fun (a, v) -> Hashtbl.replace table a v) attrs;
  let o = { oid; class_name; attrs = table; deleted = false } in
  Hashtbl.add t.objects (Ident.Oid.to_int oid) o;
  enroll t class_name oid;
  record_undo t (U_insert o);
  Ok oid

let get t oid ~attribute =
  let* o = find t oid in
  match Hashtbl.find_opt o.attrs attribute with
  | Some v -> Ok v
  | None -> Error (`Unknown_attribute (o.class_name, attribute))

let set t oid ~attribute ~value =
  let* o = find t oid in
  let* ty =
    (Schema.attribute_type t.schema ~class_name:o.class_name ~attribute
      : (_, Schema.error) result
      :> (_, error) result)
  in
  if not (Value.conforms value ty) then
    Error
      (`Type_error
        (Printf.sprintf "attribute %s.%s expects %s, got %s" o.class_name
           attribute (Value.type_name ty) (Value.to_string value)))
  else begin
    record_undo t (U_set (o, attribute, Hashtbl.find_opt o.attrs attribute));
    Hashtbl.replace o.attrs attribute value;
    Ok ()
  end

let delete t oid =
  let* o = find t oid in
  o.deleted <- true;
  record_undo t (U_delete o);
  Ok ()

(* Migration along the hierarchy.  Generalizing drops the attributes not
   declared by the target superclass; specializing adds the target's extra
   attributes as [Null]. *)
let migrate t oid ~to_class ~check =
  let* o = find t oid in
  let* () =
    if check t.schema ~from_class:o.class_name ~to_class then Ok ()
    else
      Error
        (`Type_error
          (Printf.sprintf "cannot migrate %s from %s to %s"
             (Ident.Oid.to_string oid) o.class_name to_class))
  in
  let* target_attrs =
    (Schema.attributes t.schema to_class
      : (_, Schema.error) result
      :> (_, error) result)
  in
  let fresh = Hashtbl.create (List.length target_attrs) in
  List.iter
    (fun (a, _) ->
      let v =
        match Hashtbl.find_opt o.attrs a with Some v -> v | None -> Value.Null
      in
      Hashtbl.replace fresh a v)
    target_attrs;
  record_undo t
    (U_migrate
       (o, o.class_name, Hashtbl.fold (fun a v acc -> (a, v) :: acc) o.attrs []));
  Hashtbl.reset o.attrs;
  Hashtbl.iter (Hashtbl.replace o.attrs) fresh;
  unenroll t o.class_name oid;
  o.class_name <- to_class;
  enroll t to_class oid;
  Ok ()

let generalize t oid ~to_class =
  migrate t oid ~to_class ~check:(fun schema ~from_class ~to_class ->
      Schema.is_subclass schema ~sub:from_class ~super:to_class)

let specialize t oid ~to_class =
  migrate t oid ~to_class ~check:(fun schema ~from_class ~to_class ->
      Schema.is_subclass schema ~sub:to_class ~super:from_class)

(* The extent of a class includes the members of its subclasses: walk the
   hierarchy below [class_name] and collect the live direct members. *)
let extent t ~class_name =
  let acc = ref [] in
  let rec walk name =
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.objects key with
        | Some o when not o.deleted -> acc := o.oid :: !acc
        | Some _ | None -> ())
      !(members_of t name);
    List.iter walk (Schema.direct_subclasses t.schema name)
  in
  if Schema.mem t.schema class_name then walk class_name;
  List.sort Ident.Oid.compare !acc

let count_live t =
  Hashtbl.fold (fun _ o n -> if o.deleted then n else n + 1) t.objects 0

(* ------------------------------------------- savepoints and rollback *)

let savepoint t = { mark = t.undo_len; saved_oid_count = Ident.Oid.count t.oids }

let apply_undo t = function
  | U_insert o ->
      Hashtbl.remove t.objects (Ident.Oid.to_int o.oid);
      unenroll t o.class_name o.oid
  | U_set (o, attribute, old) -> (
      match old with
      | Some v -> Hashtbl.replace o.attrs attribute v
      | None -> Hashtbl.remove o.attrs attribute)
  | U_delete o -> o.deleted <- false
  | U_migrate (o, old_class, old_attrs) ->
      unenroll t o.class_name o.oid;
      Hashtbl.reset o.attrs;
      List.iter (fun (a, v) -> Hashtbl.replace o.attrs a v) old_attrs;
      o.class_name <- old_class;
      enroll t old_class o.oid

let rollback_to t sp =
  if sp.mark > t.undo_len then
    invalid_arg "Object_store.rollback_to: savepoint from the future";
  while t.undo_len > sp.mark do
    (match t.undo with
    | entry :: rest ->
        apply_undo t entry;
        t.undo <- rest
    | [] -> assert false);
    t.undo_len <- t.undo_len - 1
  done;
  (* Identifiers issued during the undone span are reissued, so an
     aborted transaction is indistinguishable from one that never ran. *)
  Ident.Oid.rewind t.oids ~count:sp.saved_oid_count

(* The commit point: committed history can never be rolled back again,
   so the inverse-operation log is dropped (savepoints taken before this
   call become invalid).  With rollback off the table the transaction's
   tombstones are unreachable too — every read filters them and rules
   bind live extents — so committed deletions release their rows here;
   the store stays O(live objects), not O(deletion history). *)
let forget_undo t =
  List.iter
    (function
      | U_delete o when o.deleted ->
          Hashtbl.remove t.objects (Ident.Oid.to_int o.oid);
          unenroll t o.class_name o.oid
      | _ -> ())
    t.undo;
  t.undo <- [];
  t.undo_len <- 0

(* ----------------------------------------------- checkpoint support *)

let oid_count t = Ident.Oid.count t.oids

let set_oid_count t count =
  if count < Ident.Oid.count t.oids then
    invalid_arg "Object_store.set_oid_count: cannot go backwards";
  (* Advance by issuing (dense identifiers have no gaps to skip). *)
  while Ident.Oid.count t.oids < count do
    ignore (Ident.Oid.fresh t.oids)
  done

let dump_objects t =
  let rows =
    Hashtbl.fold
      (fun _ o acc ->
        let attrs =
          List.sort
            (fun (a, _) (b, _) -> String.compare a b)
            (Hashtbl.fold (fun a v acc -> (a, v) :: acc) o.attrs [])
        in
        (o.oid, o.class_name, o.deleted, attrs) :: acc)
      t.objects []
  in
  List.sort (fun (a, _, _, _) (b, _, _, _) -> Ident.Oid.compare a b) rows

let restore_object t ~oid ~class_name ~deleted ~attrs =
  if Hashtbl.mem t.objects (Ident.Oid.to_int oid) then
    invalid_arg "Object_store.restore_object: object already present";
  let table = Hashtbl.create (List.length attrs) in
  List.iter (fun (a, v) -> Hashtbl.replace table a v) attrs;
  let o = { oid; class_name; attrs = table; deleted } in
  Hashtbl.add t.objects (Ident.Oid.to_int oid) o;
  enroll t class_name oid

let attributes_of t oid =
  let* o = find t oid in
  Ok
    (List.sort
       (fun (a, _) (b, _) -> String.compare a b)
       (Hashtbl.fold (fun a v acc -> (a, v) :: acc) o.attrs []))

let pp_object t ppf oid =
  match find t oid with
  | Error e -> pp_error ppf e
  | Ok o ->
      let attrs = Result.value ~default:[] (attributes_of t oid) in
      let pp_attr ppf (a, v) = Fmt.pf ppf "%s=%a" a Value.pp v in
      Fmt.pf ppf "%a:%s{%a}" Ident.Oid.pp o.oid o.class_name
        Fmt.(list ~sep:(any ", ") pp_attr)
        attrs
