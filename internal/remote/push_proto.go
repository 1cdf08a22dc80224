package remote

// Wire codecs for the push data plane: OpSubscribe requests (a push.Spec
// step bound plus delivery options), OpEvent frames (one push.Event; an
// empty body is a heartbeat), and OpIngest requests (a path string followed
// by the same FilePayload body OpFetch responses use, so ingested bytes go
// through one codec in both directions).

import (
	"fmt"

	"godiva/internal/push"
)

// i32 appends a signed 32-bit value (two's complement on the wire).
func (e *enc) i32(v int) { e.u32(uint32(int32(v))) }

// i32 reads a signed 32-bit value.
func (d *dec) i32() int { return int(int32(d.u32())) }

// end fails the decode when bytes are left over. Both push bodies have a
// fixed layout, so leftovers mean a peer speaking another one (a v2
// subscribe request carries a step range, stride and filter lists).
func (d *dec) end() {
	if d.err == nil && d.off != len(d.b) {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b)-d.off)
	}
}

// encodeSubReq serializes an OpSubscribe request:
//
//	i32 toStep | u8 policy | i32 queue
func encodeSubReq(spec push.Spec, opts push.Options) []byte {
	var e enc
	e.i32(spec.ToStep)
	e.b = append(e.b, byte(opts.Policy))
	e.i32(opts.Queue)
	return e.b
}

// decodeSubReq parses an OpSubscribe request.
func decodeSubReq(body []byte) (push.Spec, push.Options, error) {
	d := dec{b: body}
	var spec push.Spec
	var opts push.Options
	spec.ToStep = d.i32()
	var pol byte
	if b := d.need(1); b != nil {
		pol = b[0]
	}
	opts.Policy = push.Policy(pol)
	opts.Queue = d.i32()
	d.end()
	if d.err != nil {
		return push.Spec{}, push.Options{}, fmt.Errorf("%w: subscribe request: %v", ErrProtocol, d.err)
	}
	if opts.Policy != push.DropOldest && opts.Policy != push.Block {
		return push.Spec{}, push.Options{}, fmt.Errorf("%w: subscribe request: unknown policy %d", ErrProtocol, pol)
	}
	return spec, opts, nil
}

// encodeEvent serializes one OpEvent frame:
//
//	u64 seq | i32 step | i32 file | f64 time | str path | str stepID
//
// Event.Created never crosses the wire — wall clocks differ between hosts;
// the client stamps arrival time instead.
func encodeEvent(ev push.Event) []byte {
	var e enc
	e.u64(ev.Seq)
	e.i32(ev.Step)
	e.i32(ev.File)
	e.f64(ev.Time)
	e.str(ev.Path)
	e.str(ev.StepID)
	return e.b
}

// decodeEvent parses a non-empty OpEvent frame.
func decodeEvent(body []byte) (push.Event, error) {
	d := dec{b: body}
	ev := push.Event{
		Seq:  d.u64(),
		Step: d.i32(),
		File: d.i32(),
		Time: d.f64(),
	}
	ev.Path = d.str()
	ev.StepID = d.str()
	d.end()
	if d.err != nil {
		return push.Event{}, fmt.Errorf("%w: event frame: %v", ErrProtocol, d.err)
	}
	return ev, nil
}

// decodeIngestReq parses an OpIngest request into fp, whose blocks come
// from stock, refilled from its first block.
func decodeIngestReq(body []byte, stock *blockStock, fp *FilePayload) error {
	stock.used = 0
	d := dec{b: body, stock: stock}
	path := d.str()
	d.filePayload(fp)
	if d.err != nil {
		return fmt.Errorf("%w: ingest request: %v", ErrProtocol, d.err)
	}
	fp.Path = path
	return nil
}
