(** Structured tracing and per-operator profiling for the distributed
    runtime.

    A tracer collects nested spans and point events, each timestamped by
    both the wall clock and the runtime's simulated clock
    ({!Distsim.Metrics.sim_time_ns}, wired by [Cluster.make]), so the
    simulated timeline of a trace is deterministic. A {!disabled} tracer is
    a strict no-op: [span t name f] runs [f] directly, records nothing
    and takes no lock, so instrumentation can live in hot paths.

    The collector is domain-safe, because serving sessions record from
    their own domains: the event buffer is protected by a mutex and the
    current track id (0 = driver, [w+1] = worker [w]) is domain-local
    ({!with_tid}). *)

type value = Str of string | Int of int | Float of float | Bool of bool
type attrs = (string * value) list
type kind = Span | Instant

type event = {
  id : int;  (** allocation order = open order *)
  parent : int;  (** id of the enclosing open span on the same track; -1 at root *)
  name : string;
  cat : string;
  tid : int;  (** 0 = driver, [w+1] = worker [w] *)
  wall_start_us : float;
  wall_dur_us : float;  (** 0 for instants *)
  sim_start_ns : float;
  sim_dur_ns : float;
  kind : kind;
  attrs : attrs;
}

type t

val disabled : t
val make : unit -> t
val enabled : t -> bool

val set_sim_clock : t -> (unit -> float) -> unit
(** Install the simulated-clock source (typically the owning cluster's
    [Metrics.sim_time_ns]). No-op on a disabled tracer. *)

(** {1 Ambient tracer}

    Instrumentation sites read the process-wide ambient tracer, which
    defaults to {!disabled}. *)

val install : t -> unit
val uninstall : unit -> unit
val get : unit -> t

val with_tid : int -> (unit -> 'a) -> 'a
(** Run a thunk with the given track id (used by [Cluster.run_stage] to
    put worker-side events on per-worker tracks). *)

val with_ambient_attrs : attrs -> (unit -> 'a) -> 'a
(** Run a thunk with extra domain-local attributes appended to every
    event this domain records inside it (any tracer, including one
    installed later). The serving layer threads [("query_id", Int qid)]
    through a whole evaluation this way, worker stages included, since
    they run on the evaluating domain; scopes nest. *)

val ambient_attrs : unit -> attrs
(** The current domain's ambient attributes ([] outside any scope). *)

(** {1 Recording} *)

val span : t -> ?cat:string -> ?attrs:attrs -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a named span; exception-safe. On a
    disabled tracer this is exactly [f ()]. *)

val instant : t -> ?cat:string -> ?attrs:attrs -> string -> unit
(** Record a point event (e.g. one shuffle, with record/byte counts). *)

val set_attr : t -> string -> value -> unit
(** Attach an attribute to the innermost open span of the current track
    (for results only known when the span body has run, like skew). *)

val events : t -> event list
(** All completed events, sorted by [id] (open order). *)

val dropped : t -> int
(** Events discarded after the collector's size cap was reached. *)

val clear : t -> unit

(** {1 Exporters} *)

module Json : sig
  val escape : string -> string
  val str : string -> string
  val num : float -> string
  val value : value -> string
  val obj : (string * string) list -> string
  val arr : string list -> string
end

(** Chrome [trace_event] JSON, loadable in chrome://tracing or Perfetto.
    [clock] picks the timeline: [`Wall] (default) or [`Sim] (the
    deterministic simulated clock). Both timestamps are always present
    in the event [args]. *)
module Chrome : sig
  val to_string : ?clock:[ `Wall | `Sim ] -> t -> string
  val write : ?clock:[ `Wall | `Sim ] -> t -> string -> unit
end

(** Flat JSONL event log: one JSON object per line. *)
module Jsonl : sig
  val to_string : t -> string
  val write : t -> string -> unit
end

(** Post-hoc aggregation of a trace into per-operator and per-iteration
    rollup tables. *)
module Rollup : sig
  type row = {
    scope : string;
    mutable first_id : int;
    mutable spans : int;
    mutable shuffles : int;
    mutable shuffled_records : int;
    mutable shuffled_bytes : int;
    mutable broadcasts : int;
    mutable broadcast_records : int;
    mutable stages : int;
    mutable stage_sim_ns : float;
    mutable max_skew : float;  (** max over stages of max/mean partition size *)
    mutable max_straggler : float;
        (** max over stages of max/median worker compute time *)
    mutable dedup_dropped : int;
        (** tuples dropped by the iteration-shuffle seen filter (summed
            from the [dedup_dropped] attr of repartition spans) *)
  }

  val per_operator : event list -> row list
  (** Grouped by the nearest enclosing physical-operator span (category
      ["op"], emitted by [Physical.Exec]). *)

  val per_iteration : event list -> row list
  (** Grouped by (fixpoint variable, iteration index). *)

  val fixpoint_shuffles : event list -> (string * int) list
  (** Shuffles charged to each fixpoint variable — the paper's per-plan
      asymmetry: O(1) for P_plw vs O(iterations) for P_gld. *)

  val iteration_shuffles : event list -> (string * int) list
  (** Shuffles occurring inside iteration spans, per fixpoint variable
      (0 for P_plw: its loop is shuffle-free). *)

  val pp_rows : Format.formatter -> row list -> unit

  val to_string : t -> string
  (** Both rollup tables, rendered for terminal display. *)
end
