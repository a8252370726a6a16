package fault

import "testing"

func TestNetDisabledPlanIsClean(t *testing.T) {
	var p NetPlan
	for seq := uint64(0); seq < 100; seq++ {
		if p.Dead(0, 1, 0, seq) {
			t.Fatalf("zero plan killed frame %d", seq)
		}
	}
	if p.DeadLink(0, 1, 0) {
		t.Error("zero plan killed a link's keep-alives")
	}
}

func TestNetValidate(t *testing.T) {
	for i, p := range []NetPlan{
		{},
		{Deaths: []LinkDeath{{From: 1, To: 2, Epoch: 0, AfterSeq: 1}, {From: 2, To: 1, Epoch: 3, AfterSeq: 0}}},
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("valid plan %d rejected: %v", i, err)
		}
	}
}

func TestNetLinkDeath(t *testing.T) {
	p := NetPlan{Deaths: []LinkDeath{
		{From: 1, To: 2, Epoch: 0, AfterSeq: 5},
	}}
	if err := p.Validate(); err != nil {
		t.Errorf("valid death plan rejected: %v", err)
	}
	// Sequenced death: frames before AfterSeq pass, frames at and after
	// it vanish — but only on the named direction and epoch.
	if p.Dead(1, 2, 0, 4) {
		t.Error("frame before AfterSeq reported dead")
	}
	for _, seq := range []uint64{5, 6, 100} {
		if !p.Dead(1, 2, 0, seq) {
			t.Errorf("frame seq %d at/after AfterSeq survived a dead link", seq)
		}
	}
	if p.Dead(2, 1, 0, 10) {
		t.Error("reverse direction died; deaths must be one-directional")
	}
	if p.Dead(1, 2, 1, 10) {
		t.Error("epoch 1 died; a redial must get a fresh link")
	}
	// DeadLink is the seq-independent view keep-alives use: any death
	// entry on the direction+epoch kills pings and pongs outright.
	if !p.DeadLink(1, 2, 0) {
		t.Error("DeadLink(1,2,0) false despite a death entry")
	}
	if p.DeadLink(2, 1, 0) || p.DeadLink(1, 2, 1) {
		t.Error("DeadLink leaked onto the reverse direction or a later epoch")
	}
}

func TestNetLinkDeathValidate(t *testing.T) {
	bad := []NetPlan{
		{Deaths: []LinkDeath{{From: -1, To: 2}}},
		{Deaths: []LinkDeath{{From: 1, To: -2}}},
		{Deaths: []LinkDeath{{From: 1, To: 2, Epoch: -1}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad death plan %d accepted: %+v", i, p.Deaths)
		}
	}
}
