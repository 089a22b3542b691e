exception Heap_error of string

type mem = {
  read : offset:int -> len:int -> Bytes.t;
  write : offset:int -> Bytes.t -> unit;
  get_u64 : offset:int -> int64;
  set_u64 : offset:int -> int64 -> unit;
}

type t = { mem : mem; size : int }

let magic = 0x50484541 (* "PHEA" *)
let header_size = 16
let data_start = header_size

let format image =
  if Bytes.length image < header_size then raise (Heap_error "image too small");
  Bytes.set_int64_le image 0 (Int64.of_int magic);
  Bytes.set_int64_le image 8 (Int64.of_int data_start)

let of_rw ~read ~write =
  {
    read;
    write;
    get_u64 = (fun ~offset -> Bytes.get_int64_le (read ~offset ~len:8) 0);
    set_u64 =
      (fun ~offset v ->
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 v;
        write ~offset b);
  }

let mem_of_bytes image =
  (* Written so that [offset + len] cannot overflow past the check. *)
  let check ~offset ~len what =
    if offset < 0 || offset > Bytes.length image - len then
      raise (Heap_error what)
  in
  {
    read =
      (fun ~offset ~len ->
        check ~offset ~len "read out of bounds";
        Bytes.sub image offset len);
    write =
      (fun ~offset b ->
        check ~offset ~len:(Bytes.length b) "write out of bounds";
        Bytes.blit b 0 image offset (Bytes.length b));
    get_u64 =
      (fun ~offset ->
        check ~offset ~len:8 "read out of bounds";
        Bytes.get_int64_le image offset);
    set_u64 =
      (fun ~offset v ->
        check ~offset ~len:8 "write out of bounds";
        Bytes.set_int64_le image offset v);
  }

let check_header t =
  if Int64.to_int (t.mem.get_u64 ~offset:0) <> magic then
    raise (Heap_error "bad heap magic")

let attach mem ~size =
  let t = { mem; size } in
  check_header t;
  t

let of_bytes image =
  let m = Bytes.get_int64_le image 0 in
  if Int64.to_int m <> magic then
    if Int64.equal m 0L then format image
    else raise (Heap_error "image is not a heap");
  { mem = mem_of_bytes image; size = Bytes.length image }

let mem t = t.mem
let size t = t.size

let get_u64 t addr = t.mem.get_u64 ~offset:addr
let set_u64 t addr v = t.mem.set_u64 ~offset:addr v

let get_int t addr =
  let v = get_u64 t addr in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    raise (Heap_error "get_int: value out of int range");
  Int64.to_int v

let set_int t addr v =
  if v < 0 then raise (Heap_error "set_int: negative");
  set_u64 t addr (Int64.of_int v)

let get_bytes t addr ~len = t.mem.read ~offset:addr ~len
let set_bytes t addr b = t.mem.write ~offset:addr b

let allocated t = get_int t 8

let alloc t n =
  if n <= 0 then raise (Heap_error "alloc: size must be positive");
  let ptr = allocated t in
  if ptr + n > t.size then
    raise
      (Heap_error
         (Printf.sprintf "alloc: out of space (%d + %d > %d)" ptr n t.size));
  set_int t 8 (ptr + n);
  ptr
