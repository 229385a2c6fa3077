//go:build unix

package tcpnet

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// BenchmarkEchoFloor prices what tcpnet adds to the sockets under it. It
// runs BenchmarkEcho's one-token group arrive echo over tcpnet and, beside
// it, a bare socket echo of the same request and reply frames: the caller
// writes its request and reads the reply, and the server reads and writes
// on one goroutine per connection. Each runs at 1 and 2 callers. Beside
// ns/op it reports the process's CPU time per call (getrusage, user and
// system, both sides of the socket) and, where /proc/self/io exists, read
// and write syscalls per call. The bare echo is the floor under the
// tcp-token workload's fabric:
//
//	go test -run '^$' -bench EchoFloor -benchtime 20000x ./internal/transport/tcpnet/
func BenchmarkEchoFloor(b *testing.B) {
	for _, callers := range []int{1, 2} {
		b.Run(fmt.Sprintf("tcpnet/callers=%d", callers), func(b *testing.B) {
			n, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer n.Close()
			bindEcho(b, n)
			floorCalls(b, callers, func(caller, i int) error {
				w := i & 63
				reply, err := n.Send(transport.Request{ID: uint64(i*callers + caller + 1), From: "t:1", To: "c:echo",
					Kind: wire.KindGroupArrive, Body: wire.GroupArrive{Wires: []int{w}}}, time.Second)
				if err != nil {
					return err
				}
				if out := reply.(wire.GroupArriveRes).Outs; len(out) != 1 || out[0] != w {
					return fmt.Errorf("echo of wire %d: %v", w, out)
				}
				return nil
			})
		})
		b.Run(fmt.Sprintf("bare/callers=%d", callers), func(b *testing.B) {
			req, rep := echoFrames(b)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			conns := make([]net.Conn, callers)
			var serving sync.WaitGroup
			defer func() {
				for _, c := range conns {
					if c != nil {
						c.Close()
					}
				}
				ln.Close()
				serving.Wait()
			}()
			serving.Add(1)
			go func() {
				defer serving.Done()
				for {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					serving.Add(1)
					go func() {
						defer serving.Done()
						defer c.Close()
						buf := make([]byte, len(req))
						for {
							if _, err := io.ReadFull(c, buf); err != nil {
								return
							}
							if _, err := c.Write(rep); err != nil {
								return
							}
						}
					}()
				}
			}()
			bufs := make([][]byte, callers)
			for i := range conns {
				if conns[i], err = net.Dial("tcp", ln.Addr().String()); err != nil {
					b.Fatal(err)
				}
				bufs[i] = make([]byte, len(rep))
			}
			floorCalls(b, callers, func(caller, _ int) error {
				c := conns[caller]
				if _, err := c.Write(req); err != nil {
					return err
				}
				if _, err := io.ReadFull(c, bufs[caller]); err != nil {
					return err
				}
				if !bytes.Equal(bufs[caller], rep) {
					return fmt.Errorf("echo reply %x, want %x", bufs[caller], rep)
				}
				return nil
			})
		})
	}
}

// echoFrames is a one-token group arrive request and its reply as tcpnet
// frames them.
func echoFrames(b *testing.B) (req, rep []byte) {
	b.Helper()
	codec, _ := wire.ByKind(wire.KindGroupArrive)
	frame := func(encode func(e *wire.Encoder) error) []byte {
		e := wire.NewEncoder(64)
		e.Pad(wire.FrameOverhead)
		if err := encode(e); err != nil {
			b.Fatal(err)
		}
		f, err := wire.FinishFrame(e.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	req = frame(func(e *wire.Encoder) error {
		return wire.EncodeRequest(e, 1, transport.Request{ID: 1, From: "t:1", To: "c:echo",
			Kind: wire.KindGroupArrive, Body: wire.GroupArrive{Wires: []int{5}}})
	})
	rep = frame(func(e *wire.Encoder) error {
		return wire.EncodeReply(e, 1, codec.Code, wire.ReplyOK,
			wire.GroupArriveRes{Status: wire.StatusProcessed, Outs: []int{5}}, "")
	})
	return req, rep
}

// floorCalls makes b.N calls split over callers goroutines and reports CPU
// time and syscalls per call.
func floorCalls(b *testing.B, callers int, call func(caller, i int) error) {
	b.ReportAllocs()
	var wg sync.WaitGroup
	errs := make([]error, callers)
	b.ResetTimer()
	before := readProc()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < b.N; i += callers {
				if err := call(c, i/callers); err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	after := readProc()
	b.StopTimer()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	calls := float64(b.N)
	b.ReportMetric(float64(after.cpu-before.cpu)/1e3/calls, "cpu-us/call")
	if after.io && before.io {
		b.ReportMetric(float64(after.reads-before.reads)/calls, "reads/call")
		b.ReportMetric(float64(after.writes-before.writes)/calls, "writes/call")
	}
}

type procCounters struct {
	cpu           time.Duration // user + system time of the process
	reads, writes int64         // read and write syscalls, /proc/self/io
	io            bool          // reads and writes were read
}

func readProc() procCounters {
	var c procCounters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return c
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		k, v, ok := bytes.Cut(line, []byte(": "))
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			continue
		}
		switch string(k) {
		case "syscr":
			c.reads, c.io = n, true
		case "syscw":
			c.writes = n
		}
	}
	return c
}
