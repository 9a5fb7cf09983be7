package engine

import (
	"fmt"
	"strings"
	"testing"

	"gcs/internal/clock"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// pingNode: node 0 sends its hardware time to node 1 every period; node 1
// jumps its logical clock to received values that are ahead.
type pingNode struct {
	id     int
	period rat.Rat
}

func (p *pingNode) Init(rt *Runtime) {
	if p.id == 0 {
		rt.SetTimerAtHW(p.period, 1)
	}
}

func (p *pingNode) OnTimer(rt *Runtime, _ int) {
	rt.Send(1, echoMsg{Val: rt.HW()})
	rt.SetTimerAtHW(rt.HW().Add(p.period), 1)
}

func (p *pingNode) OnMessage(rt *Runtime, _ int, msg Message) {
	if m, ok := msg.(echoMsg); ok && m.Val.Greater(rt.Logical()) {
		rt.SetLogical(m.Val, ri(1))
	}
}

type pingProtocol struct{ period rat.Rat }

func (p pingProtocol) Name() string        { return "ping" }
func (p pingProtocol) NewNode(id int) Node { return &pingNode{id: id, period: p.period} }
func (p pingProtocol) CloneState(n Node) Node {
	c := *n.(*pingNode)
	return &c
}

func twoNodeConfig(t *testing.T, sched0, sched1 *clock.Schedule, adv Adversary, dur rat.Rat) Config {
	t.Helper()
	net, err := network.TwoNode(ri(2))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Net:       net,
		Schedules: []*clock.Schedule{sched0, sched1},
		Adversary: adv,
		Protocol:  pingProtocol{period: ri(1)},
		Duration:  dur,
		Rho:       rf(1, 2),
	}
}

func TestRunBasics(t *testing.T) {
	cfg := twoNodeConfig(t, clock.Constant(ri(1)), clock.Constant(ri(1)), Midpoint(), ri(10))
	exec, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 fires timers at HW 1..10 → 10 sends.
	var sends, recvs int
	for _, a := range exec.NodeActions(0) {
		if a.Kind == trace.KindSend {
			sends++
		}
	}
	for _, a := range exec.NodeActions(1) {
		if a.Kind == trace.KindRecv {
			recvs++
		}
	}
	if sends != 10 {
		t.Errorf("sends = %d, want 10", sends)
	}
	// Delay = bound/2 = 1, so the send at t=10 arrives at 11 > horizon.
	if recvs != 9 {
		t.Errorf("recvs = %d, want 9", recvs)
	}
	// Ledger: 10 messages, 9 delivered.
	if len(exec.Ledger) != 10 {
		t.Errorf("ledger size = %d, want 10", len(exec.Ledger))
	}
	delivered := 0
	for _, rec := range exec.Ledger {
		if rec.Delivered {
			delivered++
			if !rec.Delay.Equal(ri(1)) {
				t.Errorf("delay = %s, want 1", rec.Delay)
			}
			if !rec.RecvReal.Equal(rec.SendReal.Add(rec.Delay)) {
				t.Error("recv != send + delay")
			}
		}
	}
	if delivered != 9 {
		t.Errorf("delivered = %d, want 9", delivered)
	}
}

func TestHardwareClockDrivesTimers(t *testing.T) {
	// Node 0 runs at rate 3/2 (within ρ = 1/2): its HW-1 timer fires at real
	// time 2/3.
	cfg := twoNodeConfig(t, clock.Constant(rf(3, 2)), clock.Constant(ri(1)), Midpoint(), ri(6))
	exec, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range exec.NodeActions(0) {
		if a.Kind == trace.KindTimer {
			if !a.Real.Equal(rf(2, 3)) {
				t.Errorf("first timer at real %s, want 2/3", a.Real)
			}
			if !a.HW.Equal(ri(1)) {
				t.Errorf("first timer at HW %s, want 1", a.HW)
			}
			break
		}
	}
}

func TestLogicalClockCompilation(t *testing.T) {
	// Node 1 jumps its logical clock to received values. With node 0 at rate
	// 3/2 and node 1 at rate 1, node 1's logical clock jumps above H_1.
	cfg := twoNodeConfig(t, clock.Constant(rf(3, 2)), clock.Constant(ri(1)), FractionAdversary{Frac: rat.Rat{}}, ri(12))
	exec, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At real time 12, node 0's HW = 18; its last send ≤ 12 carried HW = 18
	// (timer 18 at real 12). Delay 0 → node 1 receives it at real 12 and
	// jumps to 18.
	l1 := exec.LogicalAt(1, ri(12))
	if !l1.Equal(ri(18)) {
		t.Errorf("L_1(12) = %s, want 18", l1)
	}
	if mid := exec.LogicalAt(1, rf(21, 2)); mid.Greater(ri(18)) {
		t.Errorf("L_1(10.5) = %s exceeds final value", mid)
	}
	// Logical clocks never decrease (upward jumps only in this protocol).
	if exec.Logical[1].MinJump(rat.Rat{}, ri(12)).Sign() < 0 {
		t.Error("logical clock of node 1 has a downward jump")
	}
	if exec.Logical[1].MinSlope(rat.Rat{}, ri(12)).Less(ri(1)) {
		t.Error("logical clock of node 1 has slope < 1")
	}
}

func TestConfigValidation(t *testing.T) {
	net, _ := network.TwoNode(ri(1))
	good := Config{
		Net:       net,
		Schedules: []*clock.Schedule{clock.Constant(ri(1)), clock.Constant(ri(1))},
		Adversary: Midpoint(),
		Protocol:  pingProtocol{period: ri(1)},
		Duration:  ri(1),
		Rho:       rf(1, 2),
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil net", func(c *Config) { c.Net = nil }},
		{"schedule count", func(c *Config) { c.Schedules = c.Schedules[:1] }},
		{"nil adversary", func(c *Config) { c.Adversary = nil }},
		{"nil protocol", func(c *Config) { c.Protocol = nil }},
		{"zero duration", func(c *Config) { c.Duration = rat.Rat{} }},
		{"rho too big", func(c *Config) { c.Rho = ri(1) }},
		{"drift violation", func(c *Config) {
			c.Schedules = []*clock.Schedule{clock.Constant(ri(3)), clock.Constant(ri(1))}
		}},
	}
	for _, tc := range cases {
		cfg := good
		cfg.Schedules = append([]*clock.Schedule{}, good.Schedules...)
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestPerNodeActionOrder(t *testing.T) {
	cfg := twoNodeConfig(t, clock.Constant(ri(1)), clock.Constant(ri(1)), Midpoint(), ri(8))
	exec, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < exec.N(); i++ {
		actions := exec.NodeActions(i)
		if len(actions) == 0 || actions[0].Kind != trace.KindInit {
			t.Fatalf("node %d first action is not init", i)
		}
		for k := 1; k < len(actions); k++ {
			if actions[k].Real.Less(actions[k-1].Real) {
				t.Fatalf("node %d actions out of order", i)
			}
			if actions[k].HW.Less(actions[k-1].HW) {
				t.Fatalf("node %d hardware readings out of order", i)
			}
		}
	}
}

func ExampleRun() {
	net, _ := network.TwoNode(rat.FromInt(2))
	cfg := Config{
		Net:       net,
		Schedules: []*clock.Schedule{clock.Constant(rat.FromInt(1)), clock.Constant(rat.FromInt(1))},
		Adversary: Midpoint(),
		Protocol:  pingProtocol{period: rat.FromInt(1)},
		Duration:  rat.FromInt(4),
		Rho:       rat.MustFrac(1, 2),
	}
	exec, err := Run(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("actions:", len(exec.Actions))
	// Output: actions: 13
}

// introspectNode exercises the Runtime accessors from inside callbacks.
type introspectNode struct {
	t     *testing.T
	wantN int
}

func (n *introspectNode) Init(rt *Runtime) {
	if rt.ID() < 0 || rt.ID() >= n.wantN {
		n.t.Errorf("bad ID %d", rt.ID())
	}
	if rt.N() != n.wantN {
		n.t.Errorf("N = %d, want %d", rt.N(), n.wantN)
	}
	if !rt.Rho().Equal(rf(1, 2)) {
		n.t.Errorf("Rho = %s", rt.Rho())
	}
	for _, j := range rt.Neighbors() {
		if rt.Dist(j).Sign() <= 0 {
			n.t.Errorf("Dist(%d) = %s", j, rt.Dist(j))
		}
	}
	if !rt.LogicalMult().Equal(ri(1)) {
		n.t.Errorf("default mult = %s", rt.LogicalMult())
	}
	rt.SetLogical(rt.Logical(), rf(3, 2))
	if !rt.LogicalMult().Equal(rf(3, 2)) {
		n.t.Errorf("mult after SetLogical = %s", rt.LogicalMult())
	}
}
func (n *introspectNode) OnTimer(*Runtime, int)            {}
func (n *introspectNode) OnMessage(*Runtime, int, Message) {}

type introspectProtocol struct {
	t *testing.T
	n int
}

func (p introspectProtocol) Name() string        { return "introspect" }
func (p introspectProtocol) NewNode(id int) Node { return &introspectNode{t: p.t, wantN: p.n} }
func (p introspectProtocol) CloneState(n Node) Node {
	c := *n.(*introspectNode)
	return &c
}

func lineConfig(t *testing.T, n int, proto Protocol, dur rat.Rat) Config {
	t.Helper()
	net, err := network.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	scheds := make([]*clock.Schedule, n)
	for i := range scheds {
		scheds[i] = clock.Constant(ri(1))
	}
	return Config{Net: net, Schedules: scheds, Adversary: Midpoint(), Protocol: proto, Duration: dur, Rho: rf(1, 2)}
}

func TestRuntimeAccessors(t *testing.T) {
	if _, err := Run(lineConfig(t, 4, introspectProtocol{t: t, n: 4}, ri(2))); err != nil {
		t.Fatal(err)
	}
}

// farSenderNode sends directly to a distant (non-neighbor) node, which the
// model permits: distances bound delays for every pair.
type farSenderNode struct{ id int }

func (n farSenderNode) Init(rt *Runtime) {
	if n.id == 0 {
		rt.Send(rt.N()-1, echoMsg{Val: ri(42)})
	}
}
func (farSenderNode) OnTimer(*Runtime, int)            {}
func (farSenderNode) OnMessage(*Runtime, int, Message) {}

type farSenderProtocol struct{}

func (farSenderProtocol) Name() string           { return "far-sender" }
func (farSenderProtocol) NewNode(id int) Node    { return farSenderNode{id: id} }
func (farSenderProtocol) CloneState(n Node) Node { return n }

func TestLongDistanceSend(t *testing.T) {
	exec, err := Run(lineConfig(t, 5, farSenderProtocol{}, ri(5)))
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := exec.Ledger[trace.MsgKey{From: 0, To: 4, Seq: 0}]
	if !ok {
		t.Fatal("long-distance message missing from ledger")
	}
	// Midpoint delay over distance 4 is 2.
	if !rec.Delay.Equal(ri(2)) {
		t.Errorf("delay = %s, want 2", rec.Delay)
	}
	if !rec.Delivered {
		t.Error("message not delivered")
	}
}

// misuseNode commits one protocol violation from node 0's first timer.
type misuseNode struct {
	id     int
	misuse func(rt *Runtime)
}

func (n misuseNode) Init(rt *Runtime) {
	if n.id == 0 {
		rt.SetTimerAtHW(ri(1), 1)
	}
}
func (n misuseNode) OnTimer(rt *Runtime, _ int)     { n.misuse(rt) }
func (misuseNode) OnMessage(*Runtime, int, Message) {}

type misuseProtocol struct{ misuse func(rt *Runtime) }

func (misuseProtocol) Name() string           { return "misuse" }
func (p misuseProtocol) NewNode(id int) Node  { return misuseNode{id: id, misuse: p.misuse} }
func (misuseProtocol) CloneState(n Node) Node { return n }

// TestRuntimeMisuseFails: each way a protocol can break the model fails the
// run with an error naming the violation.
func TestRuntimeMisuseFails(t *testing.T) {
	cases := []struct {
		name   string
		misuse func(rt *Runtime)
		want   string
	}{
		{"negative multiplier", func(rt *Runtime) { rt.SetLogical(rt.Logical(), ri(-1)) }, "negative logical multiplier"},
		{"nil message", func(rt *Runtime) { rt.Send(1, nil) }, "sends nil message"},
		{"past timer", func(rt *Runtime) { rt.SetTimerAtHW(rt.HW().Sub(ri(1)), 2) }, "sets timer at hardware time"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := twoNodeConfig(t, clock.Constant(ri(1)), clock.Constant(ri(1)), Midpoint(), ri(5))
			cfg.Protocol = misuseProtocol{misuse: tc.misuse}
			_, err := Run(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// badDelayAdversary returns delays exceeding the bound.
type badDelayAdversary struct{}

func (badDelayAdversary) Delay(_, _ int, _ uint64, _ rat.Rat, bound rat.Rat) rat.Rat {
	return bound.Add(ri(1))
}

func TestAdversaryDelayValidation(t *testing.T) {
	cfg := twoNodeConfig(t, clock.Constant(ri(1)), clock.Constant(ri(1)), badDelayAdversary{}, ri(5))
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "outside [0, 2]") {
		t.Fatalf("err = %v, want a delay-bound violation", err)
	}
}
