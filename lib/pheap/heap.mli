(** A persistent heap inside a byte-addressed region.

    The heap is a bump allocator whose allocation pointer is itself stored
    in the region (offset 8), so the heap structure survives recovery and
    is shared by every node mapping the region.  Address 0 is the null
    pointer; the first allocatable byte is {!data_start}.

    The heap is access-agnostic: it reads and writes through the closures
    supplied at {!attach}, so the same code runs over a raw [Bytes.t]
    image during database construction ({!of_bytes}) and over a
    transactional memory (RVM [set_range] + store) during execution. *)

type t

type mem = {
  read : offset:int -> len:int -> Bytes.t;
  write : offset:int -> Bytes.t -> unit;
  get_u64 : offset:int -> int64;
  set_u64 : offset:int -> int64 -> unit;
}
(** Byte and word access to a region.  The word ops carry every 8-byte
    field access without allocating a [Bytes.t]; they must behave exactly
    as an 8-byte [read] / [write] at the same offset would — the same
    value, the same bounds errors, and (over a transaction) the same
    declared [set_range]. *)

val of_rw :
  read:(offset:int -> len:int -> Bytes.t) ->
  write:(offset:int -> Bytes.t -> unit) ->
  mem
(** A memory whose word ops go through [read] / [write] — for stores that
    only offer byte access. *)

exception Heap_error of string

val header_size : int
val data_start : int

val format : Bytes.t -> unit
(** Initialize a fresh heap header in a raw image. *)

val of_bytes : Bytes.t -> t
(** Attach directly to a raw image (builder mode).  The image must have
    been {!format}ted (or be about to be: [of_bytes] formats an all-zero
    image). *)

val attach : mem -> size:int -> t
(** Attach through an access interface; the header must be valid. *)

val mem : t -> mem
val size : t -> int

val alloc : t -> int -> int
(** Allocate [n] bytes, returning their address.
    @raise Heap_error when the region is exhausted. *)

val allocated : t -> int
(** Current allocation frontier. *)

(** {1 Typed accessors} *)

val get_u64 : t -> int -> int64
val set_u64 : t -> int -> int64 -> unit
val get_int : t -> int -> int
(** [get_u64] narrowed to a non-negative OCaml int (pointers, counters). *)

val set_int : t -> int -> int -> unit
val get_bytes : t -> int -> len:int -> Bytes.t
val set_bytes : t -> int -> Bytes.t -> unit
