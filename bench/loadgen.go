package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/serve"
)

// client talks to one service over a single keep-alive connection.
// Requests go out one at a time and in order: the service must apply
// submissions in trace order for its run to equal the batch run. It
// writes HTTP/1.1 on the connection from the calling goroutine and reads
// the reply there too. net/http's Transport would hand every request to
// its own writer and reader goroutines, and on two cores those handoffs
// were a quarter of a submit's time and moved with the host's scheduling.
type client struct {
	addr string // host:port
	conn net.Conn
	br   *bufio.Reader
	buf  bytes.Buffer
	rec  *recorder
}

// requestTimeout bounds one round trip.
const requestTimeout = time.Minute

// newClient returns a client of the service at base, an http:// URL. It
// dials on the first request.
func newClient(base string, rec *recorder) *client {
	return &client{addr: strings.TrimPrefix(base, "http://"), rec: rec}
}

// close closes the connection; a later request dials again.
func (c *client) close() {
	if c.conn != nil {
		_ = c.conn.Close() // nothing is in flight; the reply was read in full
		c.conn, c.br = nil, nil
	}
}

// do sends one request and decodes a JSON reply into out. Any transport
// error or non-2xx status is an error. op is the request's index in its
// op sequence, or -1.
func (c *client) do(method, path string, op int, body, out any) error {
	var b []byte
	if body != nil {
		var err error
		if b, err = json.Marshal(body); err != nil {
			return err
		}
	}
	s := c.rec.begin("client.request", 0)
	if c.rec != nil {
		s.Req = s.ID
		s.Attrs = map[string]any{"route": path, "op": op}
		defer c.rec.end(s)
	}
	status, blob, err := c.roundTrip(method, path, op, s.ID, b)
	if err != nil {
		c.close() // the connection's state is unknown
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: %d %s", method, path, status, bytes.TrimSpace(blob))
	}
	if out != nil {
		return json.Unmarshal(blob, out)
	}
	return nil
}

// roundTrip writes one request and reads its whole reply. req is the
// client span's id, sent only when tracing.
func (c *client) roundTrip(method, path string, op int, req uint64, body []byte) (int, []byte, error) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return 0, nil, err
		}
		c.conn, c.br = conn, bufio.NewReader(conn)
	}
	if err := c.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	fmt.Fprintf(&c.buf, "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n%s: %d\r\n",
		method, path, c.addr, len(body), opHeader, op)
	if c.rec != nil {
		fmt.Fprintf(&c.buf, "%s: %d\r\n", reqHeader, req)
	}
	c.buf.WriteString("\r\n")
	c.buf.Write(body)
	if _, err := c.conn.Write(c.buf.Bytes()); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	blob, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read in full; closing only releases it
	if err == nil && resp.Close {
		c.close()
	}
	return resp.StatusCode, blob, err
}

func (c *client) post(path string, op int, body, out any) error {
	return c.do(http.MethodPost, path, op, body, out)
}

func (c *client) get(path string, out any) error {
	return c.do(http.MethodGet, path, -1, nil, out)
}

// send issues op i.
func (c *client) send(i int, o op) (serve.TickResponse, error) {
	var tick serve.TickResponse
	switch o.kind {
	case opSubmit:
		return tick, c.post("/v1/jobs", i, serve.SubmitRequest{Job: o.job}, nil)
	case opSupply:
		return tick, c.post("/v1/supply", i, serve.SupplyRequest{Slot: o.slot, Watts: o.watts}, nil)
	default:
		err := c.post("/v1/tick", i, serve.TickRequest{To: o.slot}, &tick)
		return tick, err
	}
}

// An outcome is what happened to one op. Service time is reply minus
// send. Lag is how late the generator itself sent the request: the send
// time minus the later of its due time and the previous reply (a sleep on
// Linux can overrun by a millisecond). Latency runs from the op's due time
// to when its reply would have come had every request been sent on time:
// requests queue in order behind one another, each taking its measured
// service time. So the wait a stalled request imposes on those that came
// due during it counts against the service, and the generator's own
// lateness does not. A failed or refused request reads +Inf in both.
type outcome struct {
	lat, lag, svc time.Duration
	err           error
	tick          serve.TickResponse
}

func (o outcome) latMS() float64 { return o.failedOr(o.lat) }

func (o outcome) svcMS() float64 { return o.failedOr(o.svc) }

func (o outcome) failedOr(d time.Duration) float64 {
	if o.err != nil {
		return math.Inf(1)
	}
	return float64(d) / 1e6
}

// replay sends ops in order and returns one outcome per op. With open set
// the schedule is open loop: op i is due at start + ops[i].due whether or
// not earlier requests have returned. Otherwise the loop is closed and
// each op is due when the previous reply arrives.
func replay(c *client, ops []op, open bool) []outcome {
	outs := make([]outcome, len(ops))
	start := time.Now()
	prev, vdone := start, start // actual and on-time completion of the previous op
	for i, o := range ops {
		due := prev
		if open {
			due = start.Add(o.due)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		sent := time.Now()
		tick, err := c.send(i, o)
		done := time.Now()
		svc := done.Sub(sent)
		vdone = latest(due, vdone).Add(svc)
		outs[i] = outcome{lat: vdone.Sub(due), lag: sent.Sub(latest(due, prev)), svc: svc, err: err, tick: tick}
		prev = done
	}
	return outs
}

func latest(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
