let hr () = print_endline (String.make 78 '-')

let header title =
  print_newline ();
  hr ();
  Printf.printf "%s\n" title;
  hr ()

let opt_f = function Some v -> Printf.sprintf "%10.1f" v | None -> "         -"

let print_latency_table ~title rows =
  header title;
  Printf.printf "%-40s %10s %10s %10s %10s\n" "Operation latencies (us)"
    "NullFork" "paper" "SigWait" "paper";
  List.iter
    (fun r ->
      Printf.printf "%-40s %10.1f %s %10.1f %s\n" r.Experiments.system
        r.Experiments.null_fork_us
        (opt_f r.Experiments.paper_null_fork)
        r.Experiments.signal_wait_us
        (opt_f r.Experiments.paper_signal_wait))
    rows

let print_speedup_series ~title series =
  header title;
  (match series with
  | [] -> ()
  | first :: _ ->
      Printf.printf "%-24s" "speedup";
      List.iter
        (fun p -> Printf.printf " %6dP" p.Experiments.processors)
        first.Experiments.points;
      print_newline ());
  List.iter
    (fun s ->
      Printf.printf "%-24s" s.Experiments.series;
      List.iter
        (fun p -> Printf.printf " %7.2f" p.Experiments.speedup)
        s.Experiments.points;
      print_newline ())
    series;
  (* ASCII plot: speedup vs processors, one letter per series. *)
  print_newline ();
  let letters = [| 'T'; 'o'; 'n'; 'x'; 'y'; 'z' |] in
  let maxs = 6.0 in
  for row = 12 downto 0 do
    let lo = float_of_int row *. maxs /. 12.0 in
    let hi = float_of_int (row + 1) *. maxs /. 12.0 in
    Printf.printf "%5.1f |" lo;
    let cols = 6 in
    for p = 1 to cols do
      let cell = ref ' ' in
      List.iteri
        (fun si s ->
          List.iter
            (fun pt ->
              if
                pt.Experiments.processors = p
                && pt.Experiments.speedup >= lo
                && pt.Experiments.speedup < hi
              then cell := letters.(si mod Array.length letters))
            s.Experiments.points)
        series;
      Printf.printf "   %c   " !cell
    done;
    print_newline ()
  done;
  Printf.printf "      +";
  for _ = 1 to 6 do
    Printf.printf "-------"
  done;
  print_newline ();
  Printf.printf "       ";
  for p = 1 to 6 do
    Printf.printf "   %d   " p
  done;
  print_newline ();
  List.iteri
    (fun si s ->
      Printf.printf "  %c = %s\n"
        letters.(si mod Array.length letters)
        s.Experiments.series)
    series

let print_exec_time_series ~title series =
  header title;
  (match series with
  | [] -> ()
  | first :: _ ->
      Printf.printf "%-24s" "exec time (s)";
      List.iter
        (fun p -> Printf.printf " %5d%%" p.Experiments.memory_percent)
        first.Experiments.io_points;
      print_newline ());
  List.iter
    (fun s ->
      Printf.printf "%-24s" s.Experiments.io_series;
      List.iter
        (fun p -> Printf.printf " %6.2f" p.Experiments.exec_time_s)
        s.Experiments.io_points;
      print_newline ())
    series

let print_multiprog ~title rows =
  header title;
  Printf.printf "%-40s %10s %10s\n" "System" "speedup" "paper";
  List.iter
    (fun r ->
      Printf.printf "%-40s %10.2f %s\n" r.Experiments.mp_system
        r.Experiments.mp_speedup (opt_f r.Experiments.mp_paper))
    rows;
  Printf.printf "(maximum possible: 3.00)\n"

let print_upcalls ~title rows =
  header title;
  Printf.printf "%-48s %12s %10s\n" "Configuration" "SigWait(us)" "paper";
  List.iter
    (fun r ->
      Printf.printf "%-48s %12.1f %s\n" r.Experiments.u_config
        r.Experiments.u_signal_wait_us (opt_f r.Experiments.u_paper))
    rows

let print_ablation ~title rows =
  header title;
  List.iter
    (fun r ->
      Printf.printf "%-56s %12.2f %s\n" r.Experiments.a_label
        r.Experiments.a_value r.Experiments.a_unit)
    rows

let print_server ~title rows =
  header title;
  Printf.printf "%-28s %10s %10s %10s\n" "System" "mean(us)" "p95(us)" "p99(us)";
  List.iter
    (fun r ->
      Printf.printf "%-28s %10.0f %10.0f %10.0f\n" r.Experiments.s_system
        r.Experiments.s_mean_us r.Experiments.s_p95_us r.Experiments.s_p99_us)
    rows

let print_serve ~title (s : Experiments.serve_summary) =
  header title;
  Printf.printf "%d tenants, %d requests total, %d CPUs\n" s.Experiments.v_tenant_count
    s.Experiments.v_requests_total s.Experiments.v_cpus;
  Printf.printf "%-18s %5s %9s %9s %9s %9s %8s %7s %7s %7s %8s %7s\n" "Tenant"
    "done" "p50(us)" "p99(us)" "p999(us)" "max(us)" "SLO(ms)" "viol%" "grants"
    "preempt" "steps" "chg/ev";
  List.iter
    (fun (r : Experiments.serve_tenant_row) ->
      Printf.printf
        "%-18s %5d %9.0f %9.0f %9.0f %9.0f %8.0f %6.1f%% %7d %7d %8d %6.2f\n"
        r.Experiments.v_tenant r.Experiments.v_completed r.Experiments.v_p50_us
        r.Experiments.v_p99_us r.Experiments.v_p999_us r.Experiments.v_max_us
        r.Experiments.v_slo_ms
        (100.0 *. r.Experiments.v_violation_frac)
        r.Experiments.v_grants r.Experiments.v_preempts
        r.Experiments.v_program_steps
        (if r.Experiments.v_charge_batches = 0 then 0.0
         else
           float_of_int r.Experiments.v_charge_segments
           /. float_of_int r.Experiments.v_charge_batches))
    s.Experiments.v_rows;
  Printf.printf
    "kernel: %d upcalls, %d preemptions, %d reallocations; elapsed %.1f ms\n"
    s.Experiments.v_upcalls s.Experiments.v_preemptions
    s.Experiments.v_reallocations s.Experiments.v_elapsed_ms

let print ~title = function
  | Experiments.Latency rows -> print_latency_table ~title rows
  | Speedup series -> print_speedup_series ~title series
  | Exec_time series -> print_exec_time_series ~title series
  | Multiprog rows -> print_multiprog ~title rows
  | Upcalls rows -> print_upcalls ~title rows
  | Ablation rows -> print_ablation ~title rows
  | Server rows -> print_server ~title rows

(* Cluster runs keep kernels separate: one section per machine (its own
   upcall/preemption/migration counters, never summed across the cluster),
   then the per-tenant tails, then the cluster-wide totals. *)
let print_cluster ~title (s : Sa_cluster.Cluster.summary) =
  let module C = Sa_cluster.Cluster in
  let module Net = Sa_cluster.Net in
  header title;
  Printf.printf "%d machines x %d CPUs, %d tenants, %d requests completed\n"
    s.C.cl_machines s.C.cl_cpus s.C.cl_tenants s.C.cl_requests_total;
  List.iter
    (fun (m : C.machine_row) ->
      Printf.printf
        "machine %d%s: %d tenants, util %4.1f%% | %d upcalls, %d preempts, \
         %d reallocs | migs %d in / %d out | remote %d hits / %d fallbacks\n"
        m.C.m_id
        (if m.C.m_alive then "" else " (crashed)")
        m.C.m_tenants_final
        (100.0 *. m.C.m_util)
        m.C.m_upcalls m.C.m_preemptions m.C.m_reallocations m.C.m_migs_in
        m.C.m_migs_out m.C.m_remote_hits m.C.m_remote_fallbacks)
    s.C.cl_machine_rows;
  Printf.printf "%-6s %-12s %7s %5s %9s %9s %9s %8s %5s\n" "Tenant" "class"
    "home" "done" "p50(us)" "p99(us)" "p999(us)" "SLO(ms)" "viol";
  List.iter
    (fun (r : C.tenant_row) ->
      let home =
        if r.C.c_home = r.C.c_home0 then Printf.sprintf "m%d" r.C.c_home
        else Printf.sprintf "m%d->m%d" r.C.c_home0 r.C.c_home
      in
      Printf.printf "t%-5d %-12s %7s %5d %9.0f %9.0f %9.0f %8.0f %5d\n"
        r.C.c_tenant r.C.c_class home r.C.c_completed r.C.c_p50_us
        r.C.c_p99_us r.C.c_p999_us r.C.c_slo_ms r.C.c_violations)
    s.C.cl_tenant_rows;
  Printf.printf
    "cluster: %d migrations, %d evacuations, %d crashes, %d partitions; %d \
     remote hits, %d disk fallbacks\n"
    s.C.cl_migrations s.C.cl_evacuations s.C.cl_crashes s.C.cl_partitions
    s.C.cl_remote_hits s.C.cl_remote_fallbacks;
  Printf.printf
    "net: %d messages, %d bytes, %d drops; allocator: %d summaries (%d \
     lost), %d commands, %d rebalances\n"
    s.C.cl_net.Net.messages s.C.cl_net.Net.bytes s.C.cl_net.Net.drops
    s.C.cl_alloc.Sa_cluster.Cluster_alloc.summaries
    s.C.cl_alloc.Sa_cluster.Cluster_alloc.summary_drops
    s.C.cl_alloc.Sa_cluster.Cluster_alloc.commands
    s.C.cl_alloc.Sa_cluster.Cluster_alloc.rebalances;
  Printf.printf "elapsed %.1f ms%s\n" s.C.cl_elapsed_ms
    (if s.C.cl_completed_all then "" else " (INCOMPLETE: horizon expired)")

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = Sa_engine.Json

let num v = Json.Float v
let num_opt = function None -> Json.Null | Some v -> Json.Float v
let str s = Json.String s
let int n = Json.Int n

(* A list of objects, one per row. *)
let rows rs fields = Json.List (List.map (fun r -> Json.Obj (fields r)) rs)

let kind = function
  | Experiments.Latency _ -> "latency"
  | Speedup _ -> "speedup"
  | Exec_time _ -> "exec-time"
  | Multiprog _ -> "multiprog"
  | Upcalls _ -> "upcalls"
  | Ablation _ -> "ablation"
  | Server _ -> "server"

let to_json =
  let open Experiments in
  function
  | Latency rs ->
      rows rs (fun r ->
          [
            ("system", str r.system);
            ("null_fork_us", num r.null_fork_us);
            ("signal_wait_us", num r.signal_wait_us);
            ("paper_null_fork", num_opt r.paper_null_fork);
            ("paper_signal_wait", num_opt r.paper_signal_wait);
          ])
  | Speedup series ->
      rows series (fun s ->
          [
            ("series", str s.series);
            ( "points",
              rows s.points (fun p ->
                  [ ("processors", int p.processors); ("speedup", num p.speedup) ])
            );
          ])
  | Exec_time series ->
      rows series (fun s ->
          [
            ("series", str s.io_series);
            ( "points",
              rows s.io_points (fun p ->
                  [
                    ("memory_percent", int p.memory_percent);
                    ("exec_time_s", num p.exec_time_s);
                  ]) );
          ])
  | Multiprog rs ->
      rows rs (fun r ->
          [
            ("system", str r.mp_system);
            ("speedup", num r.mp_speedup);
            ("paper", num_opt r.mp_paper);
          ])
  | Upcalls rs ->
      rows rs (fun r ->
          [
            ("config", str r.u_config);
            ("signal_wait_us", num r.u_signal_wait_us);
            ("paper", num_opt r.u_paper);
          ])
  | Ablation rs ->
      rows rs (fun r ->
          [
            ("label", str r.a_label);
            ("value", num r.a_value);
            ("unit", str r.a_unit);
          ])
  | Server rs ->
      rows rs (fun r ->
          [
            ("system", str r.s_system);
            ("mean_us", num r.s_mean_us);
            ("p95_us", num r.s_p95_us);
            ("p99_us", num r.s_p99_us);
          ])

let serve_json (s : Experiments.serve_summary) =
  let open Experiments in
  Json.Obj
    [
      ("cpus", int s.v_cpus);
      ("tenants", int s.v_tenant_count);
      ("requests_total", int s.v_requests_total);
      ("upcalls", int s.v_upcalls);
      ("preemptions", int s.v_preemptions);
      ("reallocations", int s.v_reallocations);
      ("elapsed_ms", num s.v_elapsed_ms);
      ( "per_tenant",
        rows s.v_rows (fun r ->
            [
              ("tenant", str r.v_tenant);
              ("class", str r.v_class);
              ("completed", int r.v_completed);
              ("mean_us", num r.v_mean_us);
              ("p50_us", num r.v_p50_us);
              ("p99_us", num r.v_p99_us);
              ("p999_us", num r.v_p999_us);
              ("max_us", num r.v_max_us);
              ("slo_ms", num r.v_slo_ms);
              ("violations", int r.v_violations);
              ("violation_frac", num r.v_violation_frac);
              ("makespan_ms", num r.v_makespan_ms);
              ("grants", int r.v_grants);
              ("preempts", int r.v_preempts);
              ("cpu_seconds", num r.v_cpu_seconds);
              ("program_steps", int r.v_program_steps);
              ("charge_segments", int r.v_charge_segments);
              ("charge_batches", int r.v_charge_batches);
            ]) );
    ]

let cluster_json (s : Sa_cluster.Cluster.summary) =
  let open Sa_cluster.Cluster in
  let net = s.cl_net and alloc = s.cl_alloc in
  Json.Obj
    [
      ("machines", int s.cl_machines);
      ("cpus_per_machine", int s.cl_cpus);
      ("tenants", int s.cl_tenants);
      ("requests_total", int s.cl_requests_total);
      ("migrations", int s.cl_migrations);
      ("evacuations", int s.cl_evacuations);
      ("crashes", int s.cl_crashes);
      ("partitions", int s.cl_partitions);
      ("remote_hits", int s.cl_remote_hits);
      ("remote_fallbacks", int s.cl_remote_fallbacks);
      ("net_messages", int net.Sa_cluster.Net.messages);
      ("net_bytes", int net.Sa_cluster.Net.bytes);
      ("net_drops", int net.Sa_cluster.Net.drops);
      ("alloc_summaries", int alloc.Sa_cluster.Cluster_alloc.summaries);
      ("alloc_commands", int alloc.Sa_cluster.Cluster_alloc.commands);
      ("alloc_rebalances", int alloc.Sa_cluster.Cluster_alloc.rebalances);
      ("elapsed_ms", num s.cl_elapsed_ms);
      ("completed_all", Json.Bool s.cl_completed_all);
      ( "per_machine",
        rows s.cl_machine_rows (fun r ->
            [
              ("machine", int r.m_id);
              ("alive", Json.Bool r.m_alive);
              ("tenants_final", int r.m_tenants_final);
              ("upcalls", int r.m_upcalls);
              ("preemptions", int r.m_preemptions);
              ("reallocations", int r.m_reallocations);
              ("migs_in", int r.m_migs_in);
              ("migs_out", int r.m_migs_out);
              ("remote_hits", int r.m_remote_hits);
              ("remote_fallbacks", int r.m_remote_fallbacks);
              ("util", num r.m_util);
            ]) );
      ( "per_tenant",
        rows s.cl_tenant_rows (fun r ->
            [
              ("tenant", int r.c_tenant);
              ("class", str r.c_class);
              ("home0", int r.c_home0);
              ("home", int r.c_home);
              ("completed", int r.c_completed);
              ("p50_us", num r.c_p50_us);
              ("p99_us", num r.c_p99_us);
              ("p999_us", num r.c_p999_us);
              ("violations", int r.c_violations);
              ("slo_ms", num r.c_slo_ms);
            ]) );
    ]

let section ~name ~kind ~title data =
  (name, Json.Obj [ ("kind", str kind); ("title", str title); ("data", data) ])

let experiment_section (e : Experiments.entry) =
  let r = e.run () in
  section ~name:e.name ~kind:(kind r) ~title:e.title (to_json r)

let document sections =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Json.add_string buf name;
      Buffer.add_char buf ':';
      Json.add buf v)
    sections;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
