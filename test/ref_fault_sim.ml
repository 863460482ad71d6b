(* Reference fault simulator: the Hashtbl engine the library used
   before Paging.Fault_sim kept its resident set flat, kept verbatim as
   the oracle of test_replacement.ml.  Result type shared with
   Paging.Fault_sim so results compare with [=]. *)

type result = Paging.Fault_sim.result = { refs : int; faults : int; cold : int; evictions : int }

let run_writes ?(obs = Obs.Sink.null) ~frames ~policy ~write trace =
  assert (frames > 0);
  let tracing = Obs.Sink.is_active obs in
  let resident = Hashtbl.create frames in
  let touched = Hashtbl.create 64 in
  let faults = ref 0 and cold = ref 0 and evictions = ref 0 in
  let candidates () =
    let a = Array.make (Hashtbl.length resident) 0 in
    let i = ref 0 in
    (* lint: allow L3 — the array is sorted immediately after filling *)
    Hashtbl.iter
      (fun p () ->
        a.(!i) <- p;
        incr i)
      resident;
    Array.sort compare a;
    a
  in
  Array.iteri
    (fun i page ->
      let w = write i in
      policy.Paging.Replacement.on_reference ~page ~write:w;
      if not (Hashtbl.mem resident page) then begin
        incr faults;
        if tracing then Obs.Sink.emit obs (Obs.Event.make ~t_us:i (Fault { page }));
        if not (Hashtbl.mem touched page) then begin
          incr cold;
          if tracing then
            Obs.Sink.emit obs (Obs.Event.make ~t_us:i (Cold_fault { page }));
          Hashtbl.replace touched page ()
        end;
        if Hashtbl.length resident >= frames then begin
          let victim = policy.Paging.Replacement.choose_victim ~candidates:(candidates ()) in
          assert (Hashtbl.mem resident victim);
          Hashtbl.remove resident victim;
          policy.Paging.Replacement.on_evict ~page:victim;
          incr evictions;
          if tracing then
            Obs.Sink.emit obs (Obs.Event.make ~t_us:i (Eviction { page = victim }))
        end;
        Hashtbl.replace resident page ();
        policy.Paging.Replacement.on_load ~page
      end)
    trace;
  { refs = Array.length trace; faults = !faults; cold = !cold; evictions = !evictions }

let run ?obs ~frames ~policy trace =
  run_writes ?obs ~frames ~policy ~write:(fun _ -> false) trace

let fault_rate r = if r.refs = 0 then 0. else float_of_int r.faults /. float_of_int r.refs
