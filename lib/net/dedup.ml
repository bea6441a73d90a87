type t = {
  capacity : int;
  seen : (int * int, unit) Hashtbl.t; (* (src, id) keys in the window *)
  order : (int * int) Queue.t; (* insertion order, for FIFO eviction *)
  mutable distinct : int;
  mutable duplicates : int;
  mutable evicted : int;
}

let create ?(capacity = 1 lsl 16) () =
  if capacity < 1 then invalid_arg "Dedup.create: capacity must be >= 1";
  {
    capacity;
    seen = Hashtbl.create 1024;
    order = Queue.create ();
    distinct = 0;
    duplicates = 0;
    evicted = 0;
  }

let witness t ~src ~id =
  let key = (src, id) in
  if Hashtbl.mem t.seen key then begin
    t.duplicates <- t.duplicates + 1;
    `Duplicate
  end
  else begin
    Hashtbl.replace t.seen key ();
    Queue.add key t.order;
    t.distinct <- t.distinct + 1;
    if Queue.length t.order > t.capacity then begin
      let oldest = Queue.pop t.order in
      Hashtbl.remove t.seen oldest;
      t.evicted <- t.evicted + 1
    end;
    `New
  end

let distinct t = t.distinct

let duplicates t = t.duplicates

let evicted t = t.evicted
