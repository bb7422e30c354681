module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace
module Cost_model = Sa_hw.Cost_model
module Kernel = Sa_kernel.Kernel
module Program = Sa_program.Program

let idle_slice = Time.us 50

type t = {
  kernel : Kernel.t;
  space : Kernel.space;
  vps : int;
  vp_ops : Kernel.kt_ops option array;
  mutable core_state : Ft_core.state;
  mutable driver : Ft_core.driver option;
  mutable done_at : Time.t option;
  mutable started : bool;
  on_done : unit -> unit;
}

let core t = t.core_state
let space t = t.space
let completion_time t = t.done_at
let is_finished t = match t.done_at with None -> false | Some _ -> true

let driver t =
  match t.driver with Some d -> d | None -> assert false

let ops_of t tcb =
  match t.vp_ops.(Ft_core.tcb_binding tcb) with
  | Some ops -> ops
  | None -> failwith "Ft_kt: thread bound to an unstarted virtual processor"

(* Ready-queue depth counter track (one per space); the count read only
   happens when the category is recorded. *)
let trace_ready t =
  let sim = Kernel.sim t.kernel in
  let tr = Sim.trace sim in
  if Trace.enabled tr Trace.Uthread then
    Trace.counter tr ~time:(Sim.now sim) Trace.Uthread
      ("ready:" ^ Kernel.space_name t.space)
      (float_of_int (Ft_core.ready_threads t.core_state))

(* The user-level scheduler loop run by each virtual processor: dispatch
   from its own ready list, steal from peers, or idle-scan. *)
let rec vp_step t idx ops =
  if Ft_core.finished t.core_state then ops.Kernel.kt_exit ()
  else begin
    let s = t.core_state in
    let cell = Ft_core.queue_cell s idx in
    Ft_core.spin_lock_cell s cell ~owner:(-(idx + 1))
      ~slice:(Ft_core.spin_slice (driver t))
      ~charge:(fun slice k -> ops.Kernel.kt_charge slice k)
      (fun () ->
        match Ft_core.pop_own s idx with
        | Some tcb ->
            trace_ready t;
            run_picked t idx ops cell tcb
        | None -> (
            Ft_core.unlock_cell cell;
            match Ft_core.steal_sweep s (Kernel.sim t.kernel) ~thief:idx with
            | Some (vcell, tcb) -> run_picked t idx ops vcell tcb
            | None ->
                (* Nothing anywhere: idle-scan and look again shortly.  The
                   virtual processor burns its physical processor doing
                   this, exactly like an original-FastThreads kernel thread
                   idling in its scheduler. *)
                ops.Kernel.kt_charge idle_slice (fun () -> vp_step t idx ops)))
  end

(* Dispatch [tcb], taken off the ready list guarded by the locked [cell]. *)
and run_picked t idx ops cell tcb =
  let d = driver t in
  let s = t.core_state in
  if Ft_core.fold_dispatch s d tcb then begin
    Ft_core.lease_cell s cell ~holder:(Ft_core.tcb_id tcb)
      ~span:(Ft_core.dispatch_cost d);
    Ft_core.run_thread s ~index:idx tcb
  end
  else
    ops.Kernel.kt_charge (Ft_core.dispatch_cost d) (fun () ->
        Ft_core.unlock_cell cell;
        Ft_core.run_thread s ~index:idx tcb)

let create kernel ~name ~vps ?(priority = 0) ?cache ?io_dev
    ?(strategy = Ft_core.Copy_sections) ?(observer = fun _ _ -> ())
    ?(on_done = fun () -> ()) () =
  if vps <= 0 then invalid_arg "Ft_kt.create: vps";
  let space = Kernel.new_kthread_space kernel ~name ~priority () in
  let core_state = Ft_core.create_state ~queues:vps ?cache ?io_dev () in
  let t =
    {
      kernel;
      space;
      vps;
      vp_ops = Array.make vps None;
      core_state;
      driver = None;
      done_at = None;
      started = false;
      on_done;
    }
  in
  let costs = Kernel.costs kernel in
  let sim = Kernel.sim kernel in
  Ft_core.set_clock core_state (fun () -> Sim.now sim);
  let d =
    {
      Ft_core.costs;
      strategy;
      sa_accounting = false;
      io_latency = costs.Cost_model.io_latency;
      charge = (fun tcb span k -> (ops_of t tcb).Kernel.kt_charge span k);
      block_io =
        (fun tcb span k ->
          (* The thread traps and blocks in the kernel: the kernel thread
             serving as its virtual processor blocks with it, losing the
             physical processor for the duration (Section 2.2). *)
          let ops = ops_of t tcb in
          ops.Kernel.kt_charge costs.Cost_model.kt_block (fun () ->
              ops.Kernel.kt_block_for span k));
      block_kernel =
        (fun tcb ~register k ->
          let ops = ops_of t tcb in
          ops.Kernel.kt_charge costs.Cost_model.kt_block (fun () ->
              ops.Kernel.kt_block_on ~register k));
      thread_stopped =
        (fun tcb ->
          let idx = Ft_core.tcb_binding tcb in
          match t.vp_ops.(idx) with
          | Some ops -> vp_step t idx ops
          | None -> failwith "Ft_kt: thread stopped on unstarted VP");
      work_created = (fun _ _ -> trace_ready t);  (* VPs poll their ready lists *)
      all_done =
        (fun () ->
          t.done_at <- Some (Sim.now sim);
          t.on_done ());
      on_stamp = (fun id -> observer id (Sim.now sim));
    }
  in
  t.driver <- Some d;
  t

let start t prog =
  if t.started then invalid_arg "Ft_kt.start: already started";
  t.started <- true;
  let d = driver t in
  let root = Ft_core.new_thread t.core_state d ~name:"main" prog in
  Ft_core.make_ready t.core_state d ~at:0 root;
  for i = 0 to t.vps - 1 do
    ignore
      (Kernel.spawn_kthread t.kernel t.space
         ~name:(Printf.sprintf "vp%d" i)
         ~body:(fun ops ->
           t.vp_ops.(i) <- Some ops;
           vp_step t i ops)
         ())
  done
