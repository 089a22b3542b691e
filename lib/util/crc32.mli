(** CRC-32 (IEEE 802.3 polynomial, reflected), used to protect log records
    against partial or torn writes.  The implementation is table-driven
    (slicing-by-8: eight bytes per step) and allocates only the returned
    [int32] on the update path. *)

type t = int32
(** A running CRC value. *)

val empty : t
(** CRC of the empty string. *)

val update : t -> Bytes.t -> pos:int -> len:int -> t
(** [update crc b ~pos ~len] extends [crc] with [len] bytes of [b] starting
    at [pos].  Raises [Invalid_argument] if the range is out of bounds. *)

val update_string : t -> string -> t
(** [update_string crc s] extends [crc] with all of [s]. *)

val finish : t -> int32
(** Final CRC value (post-conditioning applied). *)

val bytes : Bytes.t -> pos:int -> len:int -> int32
(** One-shot CRC of a byte range. *)

val string : string -> int32
(** One-shot CRC of a string. *)
