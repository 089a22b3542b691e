open Lbc_pheap

(** Handle to an OO7 database living in a persistent heap.

    The database can be attached three ways with identical semantics:
    over a raw [Bytes.t] image (construction, verification), over an
    arbitrary {!Lbc_pheap.Heap.mem} access pair, or over a coherency
    transaction — in which case every store is captured by [set_range]
    and propagates to peers at commit. *)

type t

exception Bad_database of string

val attach_bytes : Schema.config -> Bytes.t -> t
val attach_mem : Schema.config -> Heap.mem -> size:int -> t

val attach_txn : Schema.config -> Lbc_core.Node.Txn.t -> region:int -> t
(** Reads and writes go through the transaction (and must be covered by a
    lock the transaction holds). *)

val attach_node : Schema.config -> Lbc_core.Node.t -> region:int -> t
(** Read-only attachment to a node's cache, for verification; writes
    raise. *)

val config : t -> Schema.config
val heap : t -> Heap.t

val fields : t -> Schema.fields
(** The configuration's composite and assembly field offsets, resolved
    at attach. *)

val root_assembly : t -> int
val num_composites : t -> int

val composite : t -> int -> int
(** Address of the i-th composite part (via the directory). *)

val dir_capacity : t -> int

val append_composite : t -> int -> int
(** Register a new composite in the directory; returns its directory
    position.  @raise Bad_database when the directory is full. *)

val remove_composite : t -> int -> unit
(** Swap-remove the composite at the given directory position. *)

val index : t -> Iavl.t
(** The part index: atomic parts ordered by their (mutable) build-date
    field, read indirectly through the part — so a date change that keeps
    a part's ordering position writes no index bytes at all.  Attached
    once, with the database. *)

(** {1 Typed field access} *)

val atomic_get : t -> addr:int -> int -> int64
(** [atomic_get t ~addr field] reads the atomic part at [addr]; [field] is
    one of the {!Schema.Atomic} offsets. *)

val atomic_set : t -> addr:int -> int -> int64 -> unit

val root_part : t -> comp:int -> int
val document : t -> comp:int -> int

val part : t -> comp:int -> int -> int
(** The i-th atomic part of composite [comp]. *)

val child : t -> asm:int -> int -> int
(** The i-th child (assembly or, at the base level, composite part) of
    assembly [asm]. *)

val checksum : t -> int64
(** Order-independent digest of every atomic part's mutable fields
    (date, x, y) — equal iff two replicas agree on the data the
    traversals touch. *)
