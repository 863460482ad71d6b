let min_block = 4

let overhead = 2

let null = -1

let size w = w lsr 1

let allocated w = w land 1 = 1

let header mem ~base off = Memstore.Physical.read_int mem (base + off)

let footer mem ~base off = Memstore.Physical.read_int mem (base + off - 1)

let write_tags mem ~base off ~size ~allocated =
  assert (size >= 2);
  let w = (size lsl 1) lor Bool.to_int allocated in
  Memstore.Physical.write_int mem (base + off) w;
  Memstore.Physical.write_int mem (base + off + size - 1) w

let read_next mem ~base off = Memstore.Physical.read_int mem (base + off + 1)

let read_prev mem ~base off = Memstore.Physical.read_int mem (base + off + 2)

let write_next mem ~base off v = Memstore.Physical.write_int mem (base + off + 1) v

let write_prev mem ~base off v = Memstore.Physical.write_int mem (base + off + 2) v
