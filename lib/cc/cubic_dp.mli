(** CUBIC as a datapath fold program + control handler — byte-identical
    to {!Cubic} on every topology (golden-digest pinned). The per-ACK
    growth is the fold; the multiplicative decrease runs in the control
    handler behind an [On_loss] report. *)

val register_names : string list
(** Names accepted by scenario [(const REG V)] overrides, in register
    order: cwnd, ssthresh, w_max, epoch_start, k, srtt,
    last_reduction. *)

val program : Proteus_net.Sender.env -> Proteus.Datapath.program
(** The fold program (fresh per flow; all state lives in the adapter's
    register file). *)

val handler : Proteus.Datapath.handler
(** The loss-reaction control handler. *)

val factory :
  ?interval:float ->
  ?consts:(string * float) list ->
  unit ->
  Proteus_net.Sender.factory
(** Lowered sender factory. [interval] appends an [Every] report
    trigger (observability-only — CUBIC's handler ignores interval
    reports); [consts] overrides initial register values by name.
    Raises [Invalid_argument] on unknown names — validate with
    {!register_names} first when the values come from user input. *)
