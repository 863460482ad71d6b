type result = { refs : int; faults : int; cold : int; evictions : int }

(* Flags of a page in the engine's flag bytes. *)
let resident = 1

let touched = 2

(* Flat engine: one byte of flags per page, sized from the trace extent,
   and the resident pages in ascending order in [slots].  A victim is
   chosen only when every frame is full, when [slots] holds exactly the
   resident set, so the policy borrows it as its candidate array and
   nothing is allocated per reference. *)
let run_writes ?(obs = Obs.Sink.null) ~frames ~policy ~write trace =
  assert (frames > 0);
  let tracing = Obs.Sink.is_active obs in
  let extent = ref 0 in
  Array.iter
    (fun page ->
      if page < 0 then invalid_arg (Printf.sprintf "Fault_sim: negative page %d" page);
      if page >= !extent then extent := page + 1)
    trace;
  let flags = Bytes.make !extent '\000' in
  let slots = Resident_slots.create ~capacity:(min frames !extent) in
  let faults = ref 0 and cold = ref 0 and evictions = ref 0 in
  for i = 0 to Array.length trace - 1 do
    let page = trace.(i) in
    policy.Replacement.on_reference ~page ~write:(write i);
    let f = Bytes.get_uint8 flags page in
    if f land resident = 0 then begin
      incr faults;
      if tracing then Obs.Sink.emit obs (Obs.Event.make ~t_us:i (Fault { page }));
      if f land touched = 0 then begin
        incr cold;
        if tracing then Obs.Sink.emit obs (Obs.Event.make ~t_us:i (Cold_fault { page }))
      end;
      (* Full below [frames] only when every page of the trace is
         resident, and then no reference can fault. *)
      let victim = Replacement.admit policy slots ~page in
      if victim >= 0 then begin
        let v = Bytes.get_uint8 flags victim in
        assert (v land resident <> 0);
        Bytes.set_uint8 flags victim (v land lnot resident);
        incr evictions;
        if tracing then Obs.Sink.emit obs (Obs.Event.make ~t_us:i (Eviction { page = victim }))
      end;
      Bytes.set_uint8 flags page (resident lor touched)
    end
  done;
  { refs = Array.length trace; faults = !faults; cold = !cold; evictions = !evictions }

let run ?obs ~frames ~policy trace =
  run_writes ?obs ~frames ~policy ~write:(fun _ -> false) trace

let fault_rate r = if r.refs = 0 then 0. else float_of_int r.faults /. float_of_int r.refs
