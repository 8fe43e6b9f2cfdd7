"""GOOD: the registered wrapper provides the full uniform registry shape."""


class CompleteStreamDetector:
    name = "complete"
    event_type = "crl_delta_published"

    def register_certificate(self, certificate):
        return []

    def consume(self, event):
        return []

    def finalize(self):
        return []

    def findings(self):
        return []

    @property
    def stats(self):
        return None

    def checkpoint_state(self):
        return {}

    def restore_state(self, state, resolve_certificate=None):
        return None

    def after_resume(self):
        return None


class StreamEngine:
    def __init__(self, bundle):
        self._kc = CompleteStreamDetector()
        self._detectors = (self._kc,)
