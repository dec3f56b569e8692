(** Growable float vector; backing store for packet-scale sample logs
    (millions of RTT samples per run) without list overhead. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val push : t -> float -> unit
val get : t -> int -> float

val clear : t -> unit
(** Empty the vector, keeping its capacity for reuse. *)

val unsafe_data : t -> float array
(** The backing store itself, not a copy: entries [\[0, length t)] are
    the contents, anything after them is stale. Valid until the next
    {!push}, which may replace it. *)

val to_array : t -> float array
(** Fresh array copy of the contents. *)

val iter : (float -> unit) -> t -> unit

val sub_array : t -> pos:int -> len:int -> float array
(** Copy of the slice [pos, pos+len). *)

val last : t -> float option
