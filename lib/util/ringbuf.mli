(** Fixed-capacity byte ring buffer.

    Models the in-memory trace buffer of a hardware tracer: writes never
    block, old bytes are silently overwritten once the buffer is full, and a
    snapshot returns the surviving bytes in write order.  The consumer (the
    trace decoder) must re-synchronize inside the snapshot, exactly as an
    Intel PT decoder re-synchronizes at a PSB packet after wrap-around.

    The backing storage starts small and doubles up to the capacity as
    bytes arrive, so a short-lived buffer that only ever holds a few
    hundred bytes never pays for a full-size allocation; retention and
    order are exactly those of a fixed ring of the full capacity. *)

type t

val create : capacity:int -> t
(** [create ~capacity] makes an empty buffer holding at most [capacity]
    bytes.  Requires [capacity > 0]. *)

val initial_size : int
(** Bytes of storage a new buffer allocates up front (or its capacity,
    when that is smaller). *)

val capacity : t -> int

val length : t -> int
(** Number of bytes currently retained (≤ capacity). *)

val total_written : t -> int
(** Bytes ever written, including overwritten ones. *)

val wrapped : t -> bool
(** True once at least one byte has been overwritten. *)

val write_byte : t -> int -> unit
(** Append one byte (low 8 bits used). *)

val write_bytes : t -> bytes -> unit
(** Append all bytes of the argument. *)

val write_buffer : t -> Buffer.t -> unit
(** Append the buffer's contents without materializing them first. *)

val snapshot : t -> bytes
(** Surviving bytes, oldest first.  Does not modify the buffer. *)

val clear : t -> unit
(** Drop all contents and reset counters. *)
