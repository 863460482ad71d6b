(* In-memory span recorder for the traced pass.

   The harness wraps every call it makes into a simulator layer in
   [span]: name, start, end and parent span are kept in flat arrays, and
   each span carries the id of the cell execution it belongs to, so all
   spans of one cell share an identifier.  By default a span is also an
   Obs.Prof span (outermost, so the recorder's own clock reads stay
   inside the profiler's interval), which makes the in-library spans
   (device.dispatch, the multiprog and demand spans) nest under ours.

   Off by default; when off, [span] is a flag test and a call.  The
   recorded spans are written out with [write] when the run ends. *)

open Common

let on = ref false

let names : (string, int) Hashtbl.t = Hashtbl.create 32

let name_tab = ref [||]

let name_id s =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length names in
    Hashtbl.replace names s i;
    name_tab := Array.append !name_tab [| s |];
    i

let name_of = Ints.create ()

let parent_of = Ints.create ()

let cell_of = Ints.create ()

let start_of = Ints.create ()

let stop_of = Ints.create ()

let stack = ref []

let current_cell = ref (-1)

let cells = ref []

let n_cells = ref 0

let last = ref 0

let enable () =
  on := true;
  Obs.Prof.enable ()

let disable () =
  on := false;
  Obs.Prof.disable ()

(* Host ns of the span closed most recently. *)
let last_ns () = !last

let open_span name =
  let id = name_of.Ints.n in
  Ints.add name_of (name_id name);
  Ints.add parent_of (match !stack with p :: _ -> p | [] -> -1);
  Ints.add cell_of !current_cell;
  Ints.add stop_of 0;
  stack := id :: !stack;
  Ints.add start_of (now_ns ());
  id

let close_span id =
  let t = now_ns () in
  stop_of.Ints.a.(id) <- t;
  last := t - start_of.Ints.a.(id);
  match !stack with _ :: rest -> stack := rest | [] -> ()

let recorded name f =
  let id = open_span name in
  match f () with
  | v ->
    close_span id;
    v
  | exception e ->
    close_span id;
    raise e

(* [~prof:false] keeps the span out of Obs.Prof, whose spans cost over
   a microsecond each: for per-operation spans that never contain an
   in-library span. *)
let span ?(prof = true) name f =
  if not !on then f ()
  else if prof then Obs.Prof.span name (fun () -> recorded name f)
  else recorded name f

(* A root span "bench.cell" under a fresh cell id, labelled [label]. *)
let cell label f =
  if not !on then f ()
  else begin
    let c = !n_cells in
    incr n_cells;
    cells := (c, label) :: !cells;
    current_cell := c;
    Fun.protect ~finally:(fun () -> current_cell := -1) (fun () -> span "bench.cell" f)
  end

let count () = name_of.Ints.n

let name i = !name_tab.(name_of.Ints.a.(i))

let is_recorded name = Hashtbl.mem names name

(* Self time: a span's duration minus the part its children cover.
   Children nest strictly inside their parent on one thread, so the
   covered part is the sum of the children's durations. *)
let self_times () =
  let n = count () in
  let self = Array.init n (fun i -> stop_of.Ints.a.(i) - start_of.Ints.a.(i)) in
  for i = n - 1 downto 0 do
    let p = parent_of.Ints.a.(i) in
    if p >= 0 then self.(p) <- self.(p) - (stop_of.Ints.a.(i) - start_of.Ints.a.(i))
  done;
  self

let reset () =
  List.iter (fun (b : Ints.t) -> b.Ints.n <- 0) [ name_of; parent_of; cell_of; start_of; stop_of ];
  stack := [];
  cells := [];
  n_cells := 0

(* Tab-separated, after a "#" header naming [run]: one "name <i> <name>"
   line per span name, one "cell <id> <label>" line per cell execution,
   then one "span <id> <parent> <cell> <name> <start_ns> <end_ns>
   <self_ns>" line per span in the order spans were opened (parent and
   cell -1 for none; times relative to the first span's start). *)
let write ~run path =
  let self = self_times () in
  let t0 = if count () > 0 then start_of.Ints.a.(0) else 0 in
  let oc = open_out path in
  Printf.fprintf oc "# dsas perfbench spans/1 %s\n" run;
  Array.iteri (fun i n -> Printf.fprintf oc "name\t%d\t%s\n" i n) !name_tab;
  List.iter (fun (c, label) -> Printf.fprintf oc "cell\t%d\t%s\n" c label) (List.rev !cells);
  for i = 0 to count () - 1 do
    Printf.fprintf oc "span\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n" i parent_of.Ints.a.(i)
      cell_of.Ints.a.(i) name_of.Ints.a.(i)
      (start_of.Ints.a.(i) - t0)
      (stop_of.Ints.a.(i) - t0)
      self.(i)
  done;
  close_out oc
