(** u32-prefixed message framing over a byte stream.

    Same frame layout the sim fabric accounts for
    ([Lbc_net.Fabric.framed_length]): a little-endian u32 payload length,
    then the payload.  The writer gathers the payload from an iovec
    without concatenating; the reader tolerates arbitrary short reads. *)

val header_bytes : int

val max_frame_bytes : int
(** Largest payload a frame may carry (256 MiB). *)

val write : Unix.file_descr -> Lbc_util.Slice.t list -> int
(** Write one frame; returns the total bytes on the wire (prefix +
    payload).  Each slice is written from its own backing buffer.
    @raise Invalid_argument if the payload exceeds {!max_frame_bytes}. *)

exception Torn of string
(** The stream ended mid-frame (peer died between the prefix and the
    last payload byte), or the prefix announced an impossible length. *)

val read : Unix.file_descr -> Bytes.t option
(** Read one frame, reassembling across short reads.  [None] on a clean
    EOF at a frame boundary.  A length prefix above {!max_frame_bytes}
    is rejected before any payload buffer is allocated.
    @raise Torn on EOF inside a frame or an out-of-range prefix. *)
