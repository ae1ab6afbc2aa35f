package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// httpConn is one keep-alive HTTP/1.1 connection. It writes requests by
// hand and reads responses with net/http's parser, so a request costs
// the client one write, one parse and no goroutines. A failed request
// closes the connection; the next request dials again. In paired
// hot-query runs on a 2-CPU Xeon VM, a net/http.Client with one
// keep-alive transport per client measured about 16% lower throughput
// and 17% higher query p50 than this connection: its extra goroutines
// and allocations land on the same CPUs as the server.
type httpConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
}

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c = nil
	}
}

// do sends one request and returns the status and the body. The body
// aliases a buffer the next call reuses.
func (h *httpConn) do(method, target string, payload []byte) (int, []byte, error) {
	if h.c == nil {
		c, err := net.DialTimeout("tcp", h.addr, 2*time.Second)
		if err != nil {
			return 0, nil, err
		}
		h.c = c
		h.br = bufio.NewReaderSize(c, 32<<10)
	}
	b := append(h.req[:0], method...)
	b = append(b, ' ')
	b = append(b, target...)
	b = append(b, " HTTP/1.1\r\nHost: perfbench\r\n"...)
	if payload != nil {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(payload)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, payload...)
	h.req = b
	if err := h.c.SetDeadline(time.Now().Add(15 * time.Second)); err != nil {
		h.close()
		return 0, nil, err
	}
	if _, err := h.c.Write(b); err != nil {
		h.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		h.close()
		return 0, nil, err
	}
	h.body, err = readBody(resp.Body, h.body[:0])
	resp.Body.Close()
	if err != nil {
		h.close()
		return 0, nil, err
	}
	if resp.Close {
		h.close()
	}
	return resp.StatusCode, h.body, nil
}

func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// Phases of a run, in order.
const (
	phaseSeed uint8 = iota
	phaseWarmup
	phaseWindow
	phaseExport
)

// rec is one completed request as the client saw it.
type rec struct {
	op
	phase  uint8
	status int16
	// prefs and removed are a write's or seed's reported counts.
	prefs, removed int32
	hash           uint64 // body digest of a 2xx read
	lat            time.Duration
	end            time.Duration // completion, since run start
}

func (r *rec) ok() bool { return r.status >= 200 && r.status < 300 }

// client is one closed-loop load generator: it sends its next request
// only after the previous response has been read.
type client struct {
	in    *inputs
	gen   *gen
	conn  httpConn
	start time.Time // run start, the origin of rec.end
	seed  maphash.Seed
	recs  []rec
	// bodies keeps one copy of every distinct 2xx read body, by digest,
	// so verification after the run can parse each once.
	bodies  map[uint64][]byte
	exports map[int32]string // user -> GET /preferences body
}

func newClient(in *inputs, g *gen, start time.Time, seed maphash.Seed) *client {
	return &client{in: in, gen: g, start: start, seed: seed,
		recs: make([]rec, 0, 1<<18), bodies: map[uint64][]byte{}, exports: map[int32]string{}}
}

// send issues one operation and records it.
func (c *client) send(o op, phase uint8) *rec {
	method, target, body := c.in.request(o)
	t0 := time.Now()
	status, resp, err := c.conn.do(method, target, body)
	t1 := time.Now()
	c.recs = append(c.recs, rec{op: o, phase: phase, lat: t1.Sub(t0), end: t1.Sub(c.start), status: int16(status)})
	r := &c.recs[len(c.recs)-1]
	if err != nil {
		r.status = -1
		return r
	}
	if !r.ok() {
		return r
	}
	switch o.kind {
	case opQuery, opResolve:
		r.hash = maphash.Bytes(c.seed, resp)
		if _, ok := c.bodies[r.hash]; !ok {
			c.bodies[r.hash] = append([]byte(nil), resp...)
		}
	case opAdd, opDelete:
		var v struct{ Preferences, Removed int32 }
		if json.Unmarshal(resp, &v) != nil {
			r.status = -2 // a 2xx write whose body does not parse is a mismatch
		}
		r.prefs, r.removed = v.Preferences, v.Removed
	case opSeed:
		var v struct{ Preferences int32 }
		if json.Unmarshal(resp, &v) != nil {
			r.status = -2
		}
		r.prefs = v.Preferences
	case opExport:
		c.exports[o.user] = string(resp)
	}
	return r
}

// runFor sends the client's stream until the deadline.
func (c *client) runFor(deadline time.Time, phase uint8) {
	for time.Now().Before(deadline) {
		c.send(c.gen.next(), phase)
	}
}

// each runs f on every client concurrently and waits for all of them.
func each(cs []*client, f func(c *client)) {
	done := make(chan struct{}, len(cs))
	for _, c := range cs {
		go func(c *client) {
			defer func() { done <- struct{}{} }()
			f(c)
		}(c)
	}
	for range cs {
		<-done
	}
}

// closeAll drops every client's connection.
func closeAll(cs []*client) {
	for _, c := range cs {
		c.conn.close()
	}
}

func (r *rec) String() string {
	return fmt.Sprintf("%s user=%d state=%d pref=%d status=%d", opNames[r.kind], r.user, r.state, r.pref, r.status)
}
