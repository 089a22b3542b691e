(** Construction of one composite-part cluster — shared by the database
    builder and by run-time structural insertion ({!Operations}).

    A cluster is the composite record, its atomic parts (contiguous, so
    they share pages), their connection objects, and the document — just
    over 8 KB in the paper's configuration. *)

val build_one : Database.t -> rng:Lbc_util.Rng.t -> id:int -> int
(** Allocate and initialize a cluster in the database's heap; returns the
    composite's address.  Does {e not} touch the directory or the part
    index. *)

val index_parts : Database.t -> comp:int -> unit
(** Insert every atomic part of [comp] into the part index. *)

val unindex_parts : Database.t -> comp:int -> unit
(** Remove every atomic part of [comp] from the part index. *)
