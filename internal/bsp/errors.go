package bsp

import (
	"fmt"
	"runtime/debug"

	"embsp/internal/words"
)

// ProgramError reports a panic raised inside user Program/VP code
// during a Step, Load or Save call. All engines — the in-memory
// reference runner and both EM engines — recover such panics and return
// a ProgramError instead of crashing the process, so a long durable run
// survives a buggy program: the state directory stays at the last
// committed barrier and remains resumable (e.g. with a fixed program
// binary). A Step may also return one for a fault it detects in its own
// program's input, as cgm.Sorter does for a received run out of order;
// the engines pass it through wrapped, so errors.As finds it.
type ProgramError struct {
	// VP is the id of the virtual processor whose code panicked.
	VP int
	// Superstep is the superstep index the panic occurred in (-1: the
	// setup, which saves the initial contexts).
	Superstep int
	// Phase is "load" or "save" for a panic outside Step, else empty.
	Phase string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *ProgramError) Error() string {
	if e.Phase != "" {
		return fmt.Sprintf("bsp: program panicked in VP %d, superstep %d (%s): %v", e.VP, e.Superstep, e.Phase, e.Value)
	}
	return fmt.Sprintf("bsp: program panicked in VP %d, superstep %d: %v", e.VP, e.Superstep, e.Value)
}

// recovered turns a panic of the deferring call into its *ProgramError.
func recovered(err *error, vp, step int, phase string) {
	if r := recover(); r != nil {
		*err = &ProgramError{VP: vp, Superstep: step, Phase: phase, Value: r, Stack: debug.Stack()}
	}
}

// SafeStep invokes vp.Step with panic isolation: a panic inside the
// user's Step becomes a *ProgramError return. Engines call their VPs
// exclusively through it.
func SafeStep(vp VP, env *Env, in []Message) (halt bool, err error) {
	defer recovered(&err, env.ID(), env.Superstep(), "")
	return vp.Step(env, in)
}

// SafeLoad and SafeSave give a VP's other two methods the same
// isolation. A Load's decoder holds exactly the words the last Save
// wrote, so reading past them panics (words.Decoder) and lands here.
func SafeLoad(vp VP, dec *words.Decoder, id, step int) (err error) {
	defer recovered(&err, id, step, "load")
	vp.Load(dec)
	return nil
}

func SafeSave(vp VP, enc *words.Encoder, id, step int) (err error) {
	defer recovered(&err, id, step, "save")
	vp.Save(enc)
	return nil
}
