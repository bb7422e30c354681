(** The results path: every experiment result, and the serve and cluster
    summaries, rendered as an ASCII report (paper-vs-measured) or as JSON
    through {!Sa_engine.Json}.  This module owns both formats. *)

(** {1 Text} *)

val print : title:string -> Experiments.result -> unit
(** Print [title] as a heading, then the result's table.  Speedup series
    also get a crude ASCII plot. *)

val print_serve : title:string -> Experiments.serve_summary -> unit
(** Per-tenant SLO report for the multi-tenant serving scenario. *)

val print_cluster : title:string -> Sa_cluster.Cluster.summary -> unit
(** One section per machine (per-kernel counters are reported separately,
    never summed across the cluster), then per-tenant tail latencies with
    initial and final homes, then cluster-wide migration/net/allocator
    totals. *)

(** {1 JSON}

    A results document is one JSON object with a member per section:
    [{"<name>":{"kind":…,"title":…,"data":…}, …}], one section per line. *)

val serve_json : Experiments.serve_summary -> Sa_engine.Json.t
val cluster_json : Sa_cluster.Cluster.summary -> Sa_engine.Json.t

val section :
  name:string -> kind:string -> title:string -> Sa_engine.Json.t ->
  string * Sa_engine.Json.t
(** One document member: [name] mapped to its kind, title and data. *)

val experiment_section : Experiments.entry -> string * Sa_engine.Json.t
(** Run the entry and encode its result as a section.  The section kind
    names the row shape: ["latency"], ["speedup"], ["exec-time"],
    ["multiprog"], ["upcalls"], ["ablation"] or ["server"]. *)

val document : (string * Sa_engine.Json.t) list -> string
(** The whole document, newline-terminated. *)
