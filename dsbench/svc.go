package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dangsan/internal/service"
	"dangsan/internal/service/transport"
	"dangsan/internal/vmem"
)

// svcShards and svcClients size the service workloads: two shards, two
// closed-loop clients with one tenant each.
const (
	svcShards  = 2
	svcClients = 2
)

// svcClient replays one tenant's script and judges every verdict against
// its own model of which keys are live and which are freed.
type svcClient struct {
	tenant string
	ops    []service.ScriptOp
	lat    []float64
	failed int64
	wrong  []string
}

// buildClients makes the clients' scripts from the seed.
func buildClients(o *options) []*svcClient {
	cs := make([]*svcClient, svcClients)
	for i := range cs {
		ops := service.BuildScript(uint64(o.seed)*0x9e3779b97f4a7c15+uint64(i)+1, o.clientOps)
		tenant := fmt.Sprintf("client%d", i)
		for k := range ops {
			if ops[k].Tenant != "" {
				ops[k].Tenant = tenant
			}
		}
		cs[i] = &svcClient{tenant: tenant, ops: ops, lat: make([]float64, 0, len(ops))}
	}
	return cs
}

var svcSpan = map[string]int{
	"alloc": spSvcAlloc, "free": spSvcFree, "check": spSvcCheck, "quiesce": spSvcQuiesce,
}

// replay issues the client's ops one after another (a closed loop),
// timing each call.
func (c *svcClient) replay(svc *service.Service, buf *spanBuf, opBase uint64, tamper bool) {
	freed := make(map[uint64]bool) // key -> freed; absent keys are not yet allocated
	for i, op := range c.ops {
		id := opBase + uint64(i)
		sp := int32(-1)
		t0 := time.Now()
		if buf.sampled(id) {
			sp = buf.begin(svcSpan[op.Kind], -1, id)
		}
		var v service.Verdict
		var err error
		switch op.Kind {
		case "alloc":
			v, err = svc.Alloc(op.Tenant, op.Key, op.Size, op.Stores)
		case "free":
			v, err = svc.Free(op.Tenant, op.Key)
		case "check":
			v, err = svc.Check(op.Tenant, op.Key)
		case "quiesce":
			err = svc.Quiesce()
		}
		if sp >= 0 {
			buf.end(sp)
		}
		c.lat = append(c.lat, float64(time.Since(t0).Nanoseconds())/1e3)
		isFreed, known := freed[op.Key]
		if op.Kind == "check" && known && !isFreed && tamper {
			v.UAF = true
		}
		if why, failed := judge(op, v, err, known, isFreed); failed {
			c.failed++
			if why != "" {
				c.wrong = append(c.wrong, fmt.Sprintf("%s %s key %d: %s", c.tenant, op.Kind, op.Key, why))
			}
		}
		switch op.Kind {
		case "alloc":
			freed[op.Key] = false
		case "free":
			freed[op.Key] = true
		}
	}
}

// judge classifies one outcome. failed counts the op as failed; a
// non-empty why also marks the verdict wrong, which fails the run.
// Degraded verdicts and typed errors are failures but not wrong: the
// service answered honestly that it could not answer. A freed key that
// aged out of the shard's FreedWindow reads as unknown and is correct.
func judge(op service.ScriptOp, v service.Verdict, err error, allocated, isFreed bool) (why string, failed bool) {
	if err != nil {
		var f *vmem.Fault
		switch {
		case errors.As(err, &f):
			return "false UAF: " + err.Error(), true
		case !typedErr(err):
			return "untyped error: " + err.Error(), true
		}
		return "", true
	}
	if v.Degraded {
		return "", true
	}
	if op.Kind != "check" || !allocated {
		return "", false
	}
	switch {
	case !isFreed && v.UAF:
		return "false UAF on a live key", true
	case !isFreed && (!v.Known || v.Freed):
		return fmt.Sprintf("live key reads known=%v freed=%v", v.Known, v.Freed), true
	case isFreed && v.Known && !v.Freed:
		return "freed key reads live", true
	case isFreed && v.Known && !v.UAF:
		return "use-after-free not detected", true
	}
	return "", false
}

// svcPass runs one pass of a service workload: a fresh service with two
// shards over the given transport, and two clients replaying their
// scripts concurrently. An op is a client call. Set-up includes building
// the scripts and, over a wire transport, spawning the worker processes
// through their READY handshake.
func svcPass(transportName string) func(o *options, tr *tracer) (*passResult, error) {
	return func(o *options, tr *tracer) (*passResult, error) {
		r := newPassResult()
		c0 := childCPU()
		t0 := time.Now()
		clients := buildClients(o)
		cfg := service.Config{Shards: svcShards, Seed: uint64(o.seed), Transport: transportName}
		if transportName != service.TransportChan {
			dir, err := os.MkdirTemp(o.workDir, "svc")
			if err != nil {
				return nil, fmt.Errorf("%s: work dir: %w", transportName, err)
			}
			defer os.RemoveAll(dir)
			cfg.WorkDir = dir
		}
		svc, err := service.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", transportName, err)
		}
		closed := false
		defer func() {
			if !closed {
				svc.Close()
			}
		}()
		r.setup = time.Since(t0)

		bufs := make([]*spanBuf, len(clients))
		for i := range clients {
			bufs[i] = tr.buffer()
		}
		u0 := readUsage()
		start := time.Now()
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *svcClient) {
				defer wg.Done()
				c.replay(svc, bufs[i], uint64(i)<<32, o.tamper)
			}(i, c)
		}
		wg.Wait()
		r.parts = []time.Duration{time.Since(start)}
		r.use = readUsage().sub(u0)

		if transportName != service.TransportChan {
			peak, n, err := childPeakRSS()
			if err != nil {
				return nil, fmt.Errorf("%s: worker RSS: %w", transportName, err)
			}
			if n < svcShards {
				return nil, fmt.Errorf("%s: found %d worker processes, want %d", transportName, n, svcShards)
			}
			r.childPeak = peak
		}
		for _, c := range clients {
			r.ops += int64(len(c.lat))
			r.lat = append(r.lat, c.lat...)
			r.failed += c.failed
			r.wrong = append(r.wrong, c.wrong...)
		}
		r.attempted = r.ops
		ct := svc.Counters()
		r.layers["service.retries"] = float64(ct.Retries)
		r.layers["service.timeouts"] = float64(ct.Timeouts)
		r.layers["service.degraded"] = float64(ct.Degraded)
		r.layers["service.failovers"] = float64(ct.Failovers)
		r.layers["service.heartbeat_misses"] = float64(ct.HeartbeatMisses)
		r.layers["service.breaker_trips"] = float64(ct.BreakerTrips)
		r.layers["coord.ctx_switches_per_op"] = float64(r.use.ctxsw) / float64(r.ops)
		r.layers["coord.go_allocs_per_op"] = float64(r.use.goAllocs) / float64(r.ops)
		if tr != nil {
			agg, err := svc.AggregateStats()
			if err != nil {
				return nil, fmt.Errorf("%s: stats: %w", transportName, err)
			}
			pointerlogLayers(r.layers, agg)
		}
		r.wrong = append(r.wrong, svc.Violations()...)
		svc.Close()
		closed = true
		r.child = childCPU() - c0
		r.layers["worker.cpu_us_per_op"] = r.child.Seconds() * 1e6 / float64(r.ops)
		return r, nil
	}
}

// wireOp maps a script op onto its wire request and a typical response.
func wireOp(op service.ScriptOp) (transport.Request, transport.Response) {
	req := transport.Request{Key: op.Key, Size: op.Size, Stores: uint32(op.Stores)}
	resp := transport.Response{Known: true}
	switch op.Kind {
	case "alloc":
		req.Op = transport.OpAlloc
	case "free":
		req.Op = transport.OpFree
	case "check":
		req.Op = transport.OpCheck
	case "quiesce":
		req.Op = transport.OpQuiesce
		resp.Known = false
	}
	return req, resp
}

// codecNs times the frame codec on the workload's own op mix: the full
// encode/frame/decode path of a request and its response, in ns per op.
func codecNs(ops []service.ScriptOp) (float64, error) {
	var buf []byte
	const rounds = 20
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i, op := range ops {
			req, resp := wireOp(op)
			req.ID, resp.ID = uint64(i), uint64(i)
			buf = transport.AppendFrame(buf[:0], transport.FrameRequest, transport.EncodeRequest(req))
			_, payload, _, err := transport.DecodeFrame(buf)
			if err != nil {
				return 0, fmt.Errorf("codec: %w", err)
			}
			if _, err := transport.DecodeRequest(payload); err != nil {
				return 0, fmt.Errorf("codec: %w", err)
			}
			buf = transport.AppendFrame(buf[:0], transport.FrameResponse, transport.EncodeResponse(resp))
			_, payload, _, err = transport.DecodeFrame(buf)
			if err != nil {
				return 0, fmt.Errorf("codec: %w", err)
			}
			if _, err := transport.DecodeResponse(payload); err != nil {
				return 0, fmt.Errorf("codec: %w", err)
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(ops)), nil
}

// roundtripUs times transport.Client.Do against a benchmark-owned
// transport.Server with a no-op handler on a unix socket: the socket and
// codec cost of one wire op with no worker behind it. Latencies in µs.
func roundtripUs(dir string, ops []service.ScriptOp) ([]float64, error) {
	addr := filepath.Join(dir, "rt.sock")
	l, err := net.Listen("unix", addr)
	if err != nil {
		return nil, fmt.Errorf("roundtrip: %w", err)
	}
	srv := transport.NewServer(l, func(req transport.Request) transport.Response {
		return transport.Response{ID: req.ID, Known: true}
	})
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	defer func() {
		srv.Close()
		<-served
	}()
	c := transport.NewClient("unix", addr, 0)
	defer c.Close()
	lat := make([]float64, 0, len(ops))
	for _, op := range ops {
		req, _ := wireOp(op)
		t0 := time.Now()
		if _, err := c.Do(req, time.Second); err != nil {
			return nil, fmt.Errorf("roundtrip: %w", err)
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return lat, nil
}
