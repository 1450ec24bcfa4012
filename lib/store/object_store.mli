(** The object store: class extents, attribute state and the primitive
    state-changing operations Chimera's internal events come from. *)

open Chimera_util

type t

type error =
  [ Schema.error | `Unknown_object of string | `Deleted_object of string ]

val pp_error : Format.formatter -> error -> unit
val create : Schema.t -> t
val schema : t -> Schema.t

val insert :
  t ->
  class_name:string ->
  attrs:(string * Value.t) list ->
  (Ident.Oid.t, error) result
(** Validates against the (inherited) class schema; attributes not
    provided start as [Null]. *)

val exists : t -> Ident.Oid.t -> bool
val class_of : t -> Ident.Oid.t -> (string, error) result
val get : t -> Ident.Oid.t -> attribute:string -> (Value.t, error) result

val set :
  t -> Ident.Oid.t -> attribute:string -> value:Value.t -> (unit, error) result

val delete : t -> Ident.Oid.t -> (unit, error) result

val generalize : t -> Ident.Oid.t -> to_class:string -> (unit, error) result
(** Moves the object up the hierarchy, dropping attributes the target does
    not declare. *)

val specialize : t -> Ident.Oid.t -> to_class:string -> (unit, error) result
(** Moves the object down the hierarchy; new attributes start [Null]. *)

val extent : t -> class_name:string -> Ident.Oid.t list
(** Live members of the class, including subclass members, by ascending
    OID. *)

val count_live : t -> int
val attributes_of : t -> Ident.Oid.t -> ((string * Value.t) list, error) result
val pp_object : t -> Format.formatter -> Ident.Oid.t -> unit

(** {2 Savepoints}

    Every mutator records its inverse into an undo log, so any earlier
    state of the current (uncommitted) history can be restored — the
    substrate of block atomicity and transaction abort. *)

type savepoint

val savepoint : t -> savepoint
(** Marks the current state; cheap (no copying). *)

val rollback_to : t -> savepoint -> unit
(** Restores the state at the savepoint by applying recorded inverses in
    reverse, and rewinds the OID generator so identifiers issued during
    the undone span are reissued.  Raises [Invalid_argument] on a
    savepoint taken after the current state (or invalidated by
    {!forget_undo}). *)

val forget_undo : t -> unit
(** The commit point: drops the undo log (committed history can never be
    rolled back), invalidating earlier savepoints, and purges the
    transaction's tombstones — once rollback is impossible a deleted row
    is unreachable (reads filter it, rules bind live extents), so the
    store stays O(live objects) under deletion churn. *)

(** {2 Checkpoint support (journal segments)} *)

val oid_count : t -> int
(** Identifiers issued so far. *)

val set_oid_count : t -> int -> unit
(** Advances the OID generator to [count] issued identifiers (recovery
    from a checkpoint); raises [Invalid_argument] when going backwards. *)

val dump_objects :
  t -> (Ident.Oid.t * string * bool * (string * Value.t) list) list
(** Every object row — including this transaction's not-yet-committed
    tombstones ({!forget_undo} purges them) — as
    [(oid, class, deleted, attrs)] in ascending OID order with sorted
    attributes; the canonical comparable dump. *)

val restore_object :
  t ->
  oid:Ident.Oid.t ->
  class_name:string ->
  deleted:bool ->
  attrs:(string * Value.t) list ->
  unit
(** Reinstates a dumped row verbatim (no schema validation: the row came
    from a validated store).  Raises [Invalid_argument] when the OID is
    already present. *)
