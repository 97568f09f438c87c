(** The SMAS layout (Figure 5).

    One scheduling domain's shared space contains, in address order: up to
    13 uProcess slots (each a text region followed by a data region, both
    tagged with the slot's key), then the message-pipe region (key 15) and
    the privileged runtime (text + data, key 14) "at the end of SMAS to
    imitate the kernel space". *)

type t

val create :
  ?base:Addr.t ->
  ?slot_text:int ->
  ?slot_data:int ->
  ?pipe_size:int ->
  ?runtime_text:int ->
  ?runtime_data:int ->
  slots:int ->
  unit ->
  t
(** [slots] in [1 .. Pkey.max_uprocesses]. Sizes default to 16 MiB text +
    64 MiB data per slot, 1 MiB pipe, 16 MiB + 64 MiB runtime. All sizes
    must be page-aligned and positive. *)

val slots : t -> int

val slot_text : t -> int -> Region.t
val slot_data : t -> int -> Region.t
val slot_pkey : t -> int -> Vessel_hw.Pkey.t

val message_pipe : t -> Region.t
val runtime_text : t -> Region.t
val runtime_data : t -> Region.t

val all_regions : t -> Region.t list
(** In address order; pairwise disjoint (checked at construction). *)

val region_of_addr : t -> Addr.t -> Region.t option

val pp : Format.formatter -> t -> unit
