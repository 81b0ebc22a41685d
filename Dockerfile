# repro.serving — the Fagin-middleware engine behind an HTTP/JSON API.
#
#   docker build -t repro-serving .
#   docker run --rm -p 8000:8000 repro-serving
#   curl -s localhost:8000/healthz
#
# numpy is the engine's one dependency beyond the stdlib: its grade
# columns, scoring kernels and shards are numpy arrays.

FROM python:3.12-slim

RUN pip install --no-cache-dir numpy

WORKDIR /app
COPY src/ src/
ENV PYTHONPATH=/app/src \
    PYTHONUNBUFFERED=1 \
    REPRO_SHARDS=0

EXPOSE 8000

# /healthz returns 503 while draining, so orchestrators stop routing
# to an instance the moment shutdown begins.
HEALTHCHECK --interval=10s --timeout=3s --start-period=5s --retries=3 \
    CMD ["python", "-c", "import urllib.request,sys; sys.exit(0 if urllib.request.urlopen('http://127.0.0.1:8000/healthz', timeout=2).status == 200 else 1)"]

# SIGTERM (docker stop / compose down) triggers the graceful drain.
CMD ["python", "-m", "repro.serving", "--host", "0.0.0.0", "--port", "8000"]
