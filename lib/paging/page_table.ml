type entry = {
  mutable frame : int;
  mutable present : bool;
  mutable used : bool;
  mutable modified : bool;
  mutable locked : bool;
}

type t = { entries : entry array; mutable resident_count : int; mutable locked_count : int }

let create ~pages =
  assert (pages > 0);
  {
    entries =
      Array.init pages (fun _ ->
          { frame = -1; present = false; used = false; modified = false; locked = false });
    resident_count = 0;
    locked_count = 0;
  }

let pages t = Array.length t.entries

let entry t page =
  if page < 0 || page >= Array.length t.entries then
    invalid_arg (Printf.sprintf "Page_table: page %d outside name space" page);
  t.entries.(page)

let frame_of t page =
  let e = entry t page in
  if e.present then Some e.frame else None

let install t ~page ~frame =
  let e = entry t page in
  assert (not e.present);
  e.frame <- frame;
  e.present <- true;
  e.used <- false;
  e.modified <- false;
  t.resident_count <- t.resident_count + 1

let evict t ~page =
  let e = entry t page in
  if not e.present then invalid_arg "Page_table.evict: page not resident";
  if e.locked then invalid_arg "Page_table.evict: page is locked";
  e.present <- false;
  e.frame <- -1;
  t.resident_count <- t.resident_count - 1

let mark_used t ~page = (entry t page).used <- true

let mark_modified t ~page =
  let e = entry t page in
  e.used <- true;
  e.modified <- true

let clear_used t ~page = (entry t page).used <- false

let used t ~page = (entry t page).used

let modified t ~page = (entry t page).modified

let set_locked t ~page locked =
  let e = entry t page in
  if e.locked <> locked then begin
    e.locked <- locked;
    t.locked_count <- t.locked_count + if locked then 1 else -1
  end

let lock t ~page = set_locked t ~page true

let unlock t ~page = set_locked t ~page false

let locked t ~page = (entry t page).locked

let resident_count t = t.resident_count

let locked_count t = t.locked_count
