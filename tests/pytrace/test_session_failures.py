"""A consumer that raises must not leave its session behind.

Two guarantees: a session whose consumer raises in ``on_start``,
``on_finish`` or the final ``on_cost`` stops being the active session,
so later ``@traced`` calls do not emit into it; and a consumer that
raises inside a per-event path (an access, ``charge``, a call or a
return) leaves the session lock free for the other threads.
"""

import threading

import pytest

from repro.pytrace import TraceSession, current_session, traced

from ..core.test_events import Recorder


class Boom(Exception):
    pass


class FailingRecorder(Recorder):
    """A :class:`Recorder` whose handler ``fail_on`` raises while armed."""

    def __init__(self, fail_on, armed=True):
        super().__init__()
        self.fail_on = fail_on
        self.armed = armed

    def _maybe_fail(self, handler):
        if self.armed and handler == self.fail_on:
            self.armed = False
            raise Boom(handler)

    def on_start(self):
        self._maybe_fail("on_start")
        super().on_start()

    def on_call(self, thread, routine):
        self._maybe_fail("on_call")
        super().on_call(thread, routine)

    def on_return(self, thread):
        self._maybe_fail("on_return")
        super().on_return(thread)

    def on_read(self, thread, addr):
        self._maybe_fail("on_read")
        super().on_read(thread, addr)

    def on_write(self, thread, addr):
        self._maybe_fail("on_write")
        super().on_write(thread, addr)

    def on_thread_switch(self, thread):
        self._maybe_fail("on_thread_switch")
        super().on_thread_switch(thread)

    def on_cost(self, thread, units):
        self._maybe_fail("on_cost")
        super().on_cost(thread, units)

    def on_finish(self):
        self._maybe_fail("on_finish")
        super().on_finish()


@traced
def touch():
    return None


# -- lifecycle ---------------------------------------------------------------------


def assert_session_gone(recorder):
    """No active session is left, and a traced call emits nothing."""
    assert current_session() is None
    logged = len(recorder.log)
    touch()
    assert len(recorder.log) == logged


def test_on_start_that_raises_leaves_no_active_session():
    recorder = FailingRecorder("on_start")
    with pytest.raises(Boom):
        with TraceSession(tools=recorder):
            pass
    assert_session_gone(recorder)


def test_on_finish_that_raises_leaves_no_active_session():
    recorder = FailingRecorder("on_finish")
    with pytest.raises(Boom):
        with TraceSession(tools=recorder):
            touch()
    assert_session_gone(recorder)


def test_final_on_cost_that_raises_leaves_no_active_session():
    recorder = FailingRecorder("on_cost", armed=False)
    with pytest.raises(Boom):
        with TraceSession(tools=recorder) as session:
            array = session.array(1)
            array[0] = 1            # leaves one undelivered unit for the exit
            recorder.armed = True
    assert ("finish",) not in recorder.log
    assert_session_gone(recorder)


# -- the lock on the per-event paths -------------------------------------------------


def _from_other_thread(session):
    """Let a second thread become the emitting one (it reads one cell)."""
    array = session.array(1)
    worker = threading.Thread(target=lambda: array[0], daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()


def raise_in_read(session, recorder):
    array = session.array(1)
    recorder.fail_on, recorder.armed = "on_read", True
    array[0]


def raise_in_write(session, recorder):
    array = session.array(1)
    recorder.fail_on, recorder.armed = "on_write", True
    array[0] = 1


def raise_in_charge(session, recorder):
    # charge reaches the consumer only through a thread change
    _from_other_thread(session)
    recorder.fail_on, recorder.armed = "on_thread_switch", True
    session.charge(1)


def raise_in_call(session, recorder):
    recorder.fail_on, recorder.armed = "on_call", True
    touch()


def raise_in_return(session, recorder):
    recorder.fail_on, recorder.armed = "on_return", True
    touch()


@pytest.mark.parametrize("raising", [
    raise_in_read, raise_in_write, raise_in_charge, raise_in_call, raise_in_return,
], ids=["read", "write", "charge", "call", "return"])
def test_consumer_that_raises_releases_the_session_lock(raising):
    recorder = FailingRecorder(None, armed=False)
    with TraceSession(tools=recorder) as session:
        with pytest.raises(Boom):
            raising(session, recorder)
        assert not recorder.armed        # the handler did raise
        array = session.array(1)
        done = threading.Event()

        def emit():
            array[0] = 2
            array[0]
            done.set()

        other = threading.Thread(target=emit, daemon=True)
        other.start()
        other.join(timeout=10)
        assert done.is_set(), "a second thread blocked on the session lock"
    assert recorder.log[-1] == ("finish",)
