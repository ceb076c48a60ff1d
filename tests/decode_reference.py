"""Greedy decoding that reruns the decoder over the whole prefix, from an
empty cache, at every step: the reference the cached ``seqgen.generate``
must equal."""

import numpy as np

from fmash.seqgen import decoder_cache, decoder_logits, encode_batch
from fmash.tape import no_grad


def full_prefix_generate(symptom_ids, params, max_len):
    vocab = params.vocab
    tokens = [vocab.bos]
    with no_grad():
        memory, bias = encode_batch([symptom_ids], params)
        while len(tokens) - 1 < max_len:
            logits = decoder_logits(decoder_cache(memory, bias, params),
                                    np.asarray([tokens]), params).data[0, -1]
            shifted = logits - logits.max()
            logp = shifted - np.log(np.exp(shifted).sum())
            logp[tokens[1:]] = -np.inf
            tok = int(np.argsort(-logp, kind="stable")[0])
            if tok == vocab.eos or not np.isfinite(logp[tok]):
                break
            tokens.append(tok)
    return tokens[1:]
