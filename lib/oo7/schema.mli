open Lbc_pheap

(** The OO7 benchmark database schema (Carey, DeWitt & Naughton 1993), as
    used by the paper: a design library of composite parts, each a graph
    of atomic parts, under an assembly hierarchy; plus a part index over
    the atomic parts' build-date field.

    Object sizes follow the paper: composite and atomic part objects are
    "each roughly 200 bytes long" — we pad both to exactly 200 so that the
    atomic parts of one composite cluster on virtual-memory pages the way
    the paper's heap allocation did. *)

type config = {
  num_composites : int;  (** design-library size (paper: 500) *)
  atomics_per_composite : int;  (** graph size (paper: 20) *)
  connections_per_atomic : int;  (** out-degree (paper/OO7 small: 3) *)
  assembly_fanout : int;  (** children per complex assembly (3) *)
  assembly_levels : int;  (** hierarchy depth (7 → 729 base assemblies) *)
  composites_per_base : int;  (** composite parts per base assembly (3) *)
  date_range : int;  (** initial build dates drawn from [0, date_range) *)
  seed : int;
}

val small : config
(** The paper's configuration: 500 composites x 20 atomics, 729 base
    assemblies — 2187 composite-part visits per full traversal. *)

val tiny : config
(** A scaled-down database for unit tests. *)

val describe : config -> string
(** "small", "tiny", or a short summary of a custom configuration — for
    error messages. *)

val base_assemblies : config -> int
(** [fanout^(levels-1)]. *)

val composite_visits : config -> int
(** Composite parts visited by a full traversal:
    [base_assemblies * composites_per_base] (2187 for [small]). *)

val atomic_part : Layout.t
(** id, date, x, y, doc_id, conn_to[i] — padded to 200. *)

val max_connections : int

(** Byte offsets of the {!atomic_part} fields, resolved once from the
    layout so that no field access looks a name up. *)
module Atomic : sig
  val id : int
  val date : int
  val x : int
  val y : int
  val doc_id : int

  val conn_to : int -> int
  (** Offset of the pointer to the i-th outgoing connection object
      ([0 <= i < max_connections]). *)
end

val connection : Layout.t
(** A connection object: from, to, type, length — padded to 64 bytes, as
    in OO7's C++ heap. *)

(** Byte offsets of the {!connection} fields. *)
module Connection : sig
  val from : int
  val to_ : int
  val type_ : int
  val length : int
end

val doc_size : int
(** Bytes of the per-composite document object (OO7: 2000). *)

val composite_part : config -> Layout.t
(** id, date, root_part, document, parts[atomics_per_composite] — padded
    to 200 when it fits. *)

val cluster_size : config -> int
(** Bytes one composite part occupies together with its atomic parts,
    connection objects and document — > 8 KB in the paper's configuration,
    which is why each composite's updates land on pages of their own. *)

val assembly : config -> Layout.t
(** kind (0 complex / 1 base), id, children/components — padded to 64. *)

(** Byte offsets of the fields of a configuration's {!composite_part} and
    {!assembly} layouts.  Resolving them walks both layouts, so callers
    resolve once per configuration ({!Database} keeps them). *)
type fields = {
  comp_id : int;
  comp_date : int;
  root_part : int;
  document : int;
  part_slot : int array;  (** one per atomic part of a composite *)
  asm_kind : int;
  asm_id : int;
  child_slot : int array;  (** one per child of an assembly *)
}

val fields : config -> fields

val header : Layout.t
(** Region-resident database header: magic, root assembly, composite
    directory, object counts, index slots. *)

(** Byte offsets of the {!header} fields. *)
module Header : sig
  val db_magic : int
  val root_assembly : int
  val n_composites : int
  val composite_dir : int
  val dir_capacity : int
  val index_slots : int
end

val db_magic : int64

val region_size : config -> int
(** A region size ample for the database plus index churn. *)
