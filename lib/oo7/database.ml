open Lbc_pheap

exception Bad_database of string

type t = {
  config : Schema.config;
  heap : Heap.t;
  fields : Schema.fields;
  index : Iavl.t;
}

let header_addr = Heap.data_start

let attach_heap config heap =
  let magic = Heap.get_u64 heap (header_addr + Schema.Header.db_magic) in
  if not (Int64.equal magic Schema.db_magic) then
    raise (Bad_database "bad OO7 magic");
  let index =
    Iavl.attach heap
      ~slots:(header_addr + Schema.Header.index_slots)
      ~key_of:(fun part ->
        (Heap.get_u64 heap (part + Schema.Atomic.date), Int64.of_int part))
  in
  { config; heap; fields = Schema.fields config; index }

let attach_mem config mem ~size = attach_heap config (Heap.attach mem ~size)
let attach_bytes config image = attach_heap config (Heap.of_bytes image)

let attach_txn config txn ~region =
  let module Txn = Lbc_core.Node.Txn in
  let mem =
    {
      Heap.read = (fun ~offset ~len -> Txn.read txn ~region ~offset ~len);
      write = (fun ~offset b -> Txn.write txn ~region ~offset b);
      get_u64 = (fun ~offset -> Txn.get_u64 txn ~region ~offset);
      set_u64 = (fun ~offset v -> Txn.set_u64 txn ~region ~offset v);
    }
  in
  attach_mem config mem ~size:(Schema.region_size config)

let attach_node config node ~region =
  let read_only () = raise (Bad_database "read-only attachment") in
  let mem =
    {
      Heap.read =
        (fun ~offset ~len -> Lbc_core.Node.read node ~region ~offset ~len);
      write = (fun ~offset:_ _ -> read_only ());
      get_u64 = (fun ~offset -> Lbc_core.Node.get_u64 node ~region ~offset);
      set_u64 = (fun ~offset:_ _ -> read_only ());
    }
  in
  attach_mem config mem ~size:(Schema.region_size config)

let config t = t.config
let heap t = t.heap
let fields t = t.fields

let header_field t off = Heap.get_int t.heap (header_addr + off)
let set_header_field t off v = Heap.set_int t.heap (header_addr + off) v

let root_assembly t = header_field t Schema.Header.root_assembly
let num_composites t = header_field t Schema.Header.n_composites
let composite_dir t = header_field t Schema.Header.composite_dir

let composite t i =
  if i < 0 || i >= num_composites t then
    invalid_arg (Printf.sprintf "Database.composite: index %d" i);
  Heap.get_int t.heap (composite_dir t + (8 * i))

let dir_capacity t = header_field t Schema.Header.dir_capacity

let append_composite t addr =
  let n = num_composites t in
  if n >= dir_capacity t then raise (Bad_database "composite directory full");
  Heap.set_int t.heap (composite_dir t + (8 * n)) addr;
  set_header_field t Schema.Header.n_composites (n + 1);
  n

let remove_composite t i =
  let n = num_composites t in
  if i < 0 || i >= n then invalid_arg "Database.remove_composite";
  let dir = composite_dir t in
  if i < n - 1 then
    Heap.set_int t.heap (dir + (8 * i)) (Heap.get_int t.heap (dir + (8 * (n - 1))));
  set_header_field t Schema.Header.n_composites (n - 1)

let index t = t.index

let atomic_get t ~addr field = Heap.get_u64 t.heap (addr + field)
let atomic_set t ~addr field v = Heap.set_u64 t.heap (addr + field) v

let root_part t ~comp = Heap.get_int t.heap (comp + t.fields.root_part)
let document t ~comp = Heap.get_int t.heap (comp + t.fields.document)
let part t ~comp i = Heap.get_int t.heap (comp + t.fields.part_slot.(i))
let child t ~asm i = Heap.get_int t.heap (asm + t.fields.child_slot.(i))

let checksum t =
  (* Mix each atomic part's mutable fields into an order-independent sum. *)
  let mix acc v = Int64.add acc (Int64.mul v 0x9E3779B97F4A7C15L) in
  let acc = ref 0L in
  for ci = 0 to num_composites t - 1 do
    let comp = composite t ci in
    for ai = 0 to t.config.Schema.atomics_per_composite - 1 do
      let part = part t ~comp ai in
      acc := mix !acc (atomic_get t ~addr:part Schema.Atomic.date);
      acc := mix !acc (atomic_get t ~addr:part Schema.Atomic.x);
      acc := mix !acc (atomic_get t ~addr:part Schema.Atomic.y)
    done
  done;
  !acc
