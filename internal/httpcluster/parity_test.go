package httpcluster

import (
	"testing"
	"time"

	"msweb/internal/core"
	"msweb/internal/policy"
	"msweb/internal/trace"
)

// parityView crafts a deterministic mixed-load scheduling view over two
// masters and three slaves.
func parityView() core.View {
	v := core.View{
		Masters: []int{0, 1},
		Slaves:  []int{2, 3, 4},
		Load:    make([]core.Load, 5),
	}
	for i := range v.Load {
		v.Load[i] = core.Load{
			CPUIdle:   0.15 + 0.17*float64(i),
			DiskAvail: 0.9 - 0.13*float64(i),
			CPUQueue:  (i * 3) % 5,
			DiskQueue: (i * 2) % 4,
			Speed:     1,
		}
	}
	return v
}

// copyView deep-copies a view so booking on one side cannot leak into
// the other.
func copyView(v core.View) core.View {
	out := v
	out.Masters = append([]int(nil), v.Masters...)
	out.Slaves = append([]int(nil), v.Slaves...)
	out.Load = append([]core.Load(nil), v.Load...)
	return out
}

// TestSimLivePolicyParity drives every registered policy preset through
// the live master's actual placement path (snapshot → refreshWorkView →
// Place under placeMu) and through a reference instance placing on an
// identical plain view — the way the simulator consumes policies. The
// decision streams must match exactly: both planes feed one pipeline
// implementation, and this test is what keeps them from drifting.
func TestSimLivePolicyParity(t *testing.T) {
	for _, preset := range policy.Presets() {
		preset := preset
		t.Run(preset.Name, func(t *testing.T) {
			const seed = 9
			live := preset.Build(nil, seed)
			ref := preset.Build(nil, seed)

			m, err := LaunchMaster(NodeOptions{
				ID:      0,
				Policy:  live,
				Masters: []int{0, 1},
				Slaves:  []int{2, 3, 4},
				NodeURLs: []string{
					"", "http://127.0.0.1:1", "http://127.0.0.1:1",
					"http://127.0.0.1:1", "http://127.0.0.1:1",
				},
				// Pushed far out so no background poll or tick replaces the
				// snapshot this test injects.
				LoadRefresh: time.Hour,
				PolicyTick:  time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Shutdown()

			// Mirror LaunchMaster's topology priming on the reference.
			initial := core.View{
				Masters: []int{0, 1},
				Slaves:  []int{2, 3, 4},
				Load:    make([]core.Load, 5),
			}
			for i := range initial.Load {
				initial.Load[i] = core.Load{CPUIdle: 1, DiskAvail: 1, Speed: 1}
			}
			ref.Tick(0, &initial)

			crafted := parityView()
			m.snap.Store(&loadSnapshot{epoch: 2, at: time.Now().UnixNano(), view: crafted})
			refView := copyView(crafted)

			for i := 0; i < 200; i++ {
				cls := trace.Dynamic
				if i%5 == 0 {
					cls = trace.Static
				}
				req := core.Request{Class: cls, Script: i % 4}

				m.placeMu.Lock()
				m.refreshWorkView()
				liveTarget := m.policy.Place(req, m.ID, &m.workView)
				m.placeMu.Unlock()

				refTarget := ref.Place(req, 0, &refView)
				if liveTarget != refTarget {
					t.Fatalf("request %d (%v): live master placed at %d, reference at %d",
						i, cls, liveTarget, refTarget)
				}

				// Feed both estimator sets identically, including periodic
				// adaptation, so reservation-based presets stay in lockstep.
				resp := 0.01 + float64(i%7)*0.003
				m.placeMu.Lock()
				m.policy.ObserveCompletion(cls, resp, 0.005)
				m.placeMu.Unlock()
				ref.ObserveCompletion(cls, resp, 0.005)
				if i%32 == 31 {
					now := float64(i)
					m.placeMu.Lock()
					m.refreshWorkView()
					m.policy.Tick(now, &m.workView)
					m.placeMu.Unlock()
					ref.Tick(now, &refView)
				}
			}
		})
	}
}

// TestDisciplineValidation exercises the unified discipline surface on
// the live plane: every registered name launches, anything else fails.
func TestDisciplineValidation(t *testing.T) {
	for _, d := range core.Disciplines() {
		n, err := LaunchNode(NodeOptions{ID: 0, Discipline: d})
		if err != nil {
			t.Fatalf("discipline %q: %v", d, err)
		}
		n.Shutdown()
	}
	if _, err := LaunchNode(NodeOptions{ID: 0, Discipline: "sjf"}); err == nil {
		t.Fatal("unknown discipline must be rejected")
	}
}
