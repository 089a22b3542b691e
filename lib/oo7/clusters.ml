open Lbc_pheap
open Lbc_util

let build_one db ~rng ~id:ci =
  let heap = Database.heap db and c = Database.config db in
  let f = Database.fields db in
  let set addr off v = Heap.set_int heap (addr + off) v in
  let comp = Heap.alloc heap (Layout.size (Schema.composite_part c)) in
  let atomics =
    Array.init c.Schema.atomics_per_composite (fun _ ->
        Heap.alloc heap (Layout.size Schema.atomic_part))
  in
  Array.iteri
    (fun ai part ->
      let id = (ci * c.Schema.atomics_per_composite) + ai in
      set part Schema.Atomic.id id;
      set part Schema.Atomic.date (Rng.int rng c.Schema.date_range);
      set part Schema.Atomic.x (Rng.int rng 10_000);
      set part Schema.Atomic.y (Rng.int rng 10_000);
      set part Schema.Atomic.doc_id id)
    atomics;
  (* Connection objects: the first out-edge of each atomic part forms a
     ring so the graph is connected; the rest are random within the
     composite. *)
  Array.iteri
    (fun ai part ->
      for k = 0 to c.Schema.connections_per_atomic - 1 do
        let conn = Heap.alloc heap (Layout.size Schema.connection) in
        let target =
          if k = 0 then (ai + 1) mod c.Schema.atomics_per_composite
          else Rng.int rng c.Schema.atomics_per_composite
        in
        set conn Schema.Connection.from part;
        set conn Schema.Connection.to_ atomics.(target);
        set conn Schema.Connection.type_ k;
        set conn Schema.Connection.length (Rng.int rng 1000);
        set part (Schema.Atomic.conn_to k) conn
      done)
    atomics;
  let doc = Heap.alloc heap Schema.doc_size in
  Heap.set_bytes heap doc
    (Bytes.make Schema.doc_size (Char.chr (0x41 + (ci mod 26))));
  set comp f.Schema.comp_id ci;
  set comp f.Schema.comp_date (Rng.int rng c.Schema.date_range);
  set comp f.Schema.root_part atomics.(0);
  set comp f.Schema.document doc;
  Array.iteri (fun ai part -> set comp f.Schema.part_slot.(ai) part) atomics;
  comp

let iter_parts db ~comp f =
  let c = Database.config db in
  for ai = 0 to c.Schema.atomics_per_composite - 1 do
    f (Database.part db ~comp ai)
  done

let index_parts db ~comp =
  let idx = Database.index db in
  iter_parts db ~comp (fun part ->
      if not (Iavl.insert idx part) then
        raise (Database.Bad_database "index_parts: duplicate entry"))

let unindex_parts db ~comp =
  let idx = Database.index db in
  iter_parts db ~comp (fun part ->
      if not (Iavl.delete idx part) then
        raise (Database.Bad_database "unindex_parts: missing entry"))
